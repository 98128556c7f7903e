/**
 * @file
 * Fundamental scalar types shared by every cdfsim subsystem.
 */

#ifndef CDFSIM_COMMON_TYPES_HH
#define CDFSIM_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace cdfsim
{

/** Byte address in the simulated machine's flat address space. */
using Addr = std::uint64_t;

/** Simulated core clock cycle. */
using Cycle = std::uint64_t;

/** Architectural or physical register identifier. */
using RegId = std::uint16_t;

/**
 * Global dynamic instruction sequence number. Doubles as the
 * "timestamp" the paper assigns to uops: CDF-fetched critical uops
 * receive the sequence number they would have had in program order,
 * which is exactly the oracle stream index.
 */
using SeqNum = std::uint64_t;

/** Sentinel for "no register". */
inline constexpr RegId kInvalidReg = std::numeric_limits<RegId>::max();

/** Sentinel for "no sequence number assigned yet". */
inline constexpr SeqNum kInvalidSeq = std::numeric_limits<SeqNum>::max();

/** Null handle into a SlabPool: no in-flight instruction, no branch
 *  checkpoint. */
inline constexpr std::uint32_t kNoInst = 0xFFFF'FFFFu;

/** Sentinel cycle meaning "never" / "not scheduled". */
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/** Number of architectural integer registers in the uop ISA. */
inline constexpr RegId kNumArchRegs = 64;

/** Cache line size used throughout the hierarchy (Table 1: 64B). */
inline constexpr Addr kLineBytes = 64;

/** log2(kLineBytes), for shift-based line-number arithmetic. */
inline constexpr unsigned kLineShift = 6;
static_assert(Addr{1} << kLineShift == kLineBytes);

/** Strip the intra-line offset from an address. */
constexpr Addr
lineAlign(Addr addr)
{
    return addr & ~(kLineBytes - 1);
}

} // namespace cdfsim

#endif // CDFSIM_COMMON_TYPES_HH
