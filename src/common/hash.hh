/**
 * @file
 * Small non-cryptographic hashing utilities shared by the simulator
 * and its tooling (golden-result fingerprints, flat-map mixing).
 */

#ifndef CDFSIM_COMMON_HASH_HH
#define CDFSIM_COMMON_HASH_HH

#include <cstdint>
#include <span>
#include <string_view>

namespace cdfsim
{

/** FNV-1a 64-bit over a byte range. */
constexpr std::uint64_t
fnv1a64(std::string_view bytes,
        std::uint64_t seed = 0xCBF29CE484222325ull)
{
    std::uint64_t h = seed;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

/** FNV-1a 64-bit over raw bytes (snapshot payloads). */
inline std::uint64_t
fnv1a64(std::span<const std::uint8_t> bytes,
        std::uint64_t seed = 0xCBF29CE484222325ull)
{
    return fnv1a64(
        std::string_view(reinterpret_cast<const char *>(bytes.data()),
                         bytes.size()),
        seed);
}

/**
 * Finalizer-style 64-bit integer mix (splitmix64). Used by the
 * open-addressing flat maps to spread sequential keys (timestamps,
 * PCs) across buckets.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace cdfsim

#endif // CDFSIM_COMMON_HASH_HH
