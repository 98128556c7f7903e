/**
 * @file
 * Versioned binary snapshot serialization.
 *
 * SnapWriter/SnapReader implement a little-endian, bounds-checked
 * byte-stream format used by the warmup checkpointing subsystem
 * (sim/snapshot.hh). They share one archive interface: `ar(x, y, ...)`
 * writes each argument when saving and assigns it when restoring.
 * Every snapshotted class lists its state exactly once, in a member
 *
 *     template <class Ar> void fields(Ar &ar);
 *
 * that both archives drive, so the save and restore sides cannot
 * drift apart. Raw struct memcpy is never used: the byte stream is
 * independent of padding, host endianness quirks and container
 * implementation details.
 *
 * Wire encoding of `ar(x)`:
 *  - bool: one byte (0/1);
 *  - integers: sizeof(T) bytes; enums: their underlying type;
 *  - double: its 64-bit pattern;
 *  - std::string: u64 length, then the bytes;
 *  - std::bitset<N>: ceil(N/64) u64 words, lowest bits first;
 *  - std::pair: first, then second;
 *  - std::array and std::span: the elements, no length (the extent is
 *    fixed by the type or by the config the object was built from);
 *  - classes with a fields() member: whatever fields() visits.
 * Two wrappers state a width the C++ type does not fix:
 *  - `as<W>(x)` puts x on the wire as a W;
 *  - `sized<W>(seq)` writes seq.size() as a W, then the elements;
 *    restore resizes seq first. An optional second argument visits
 *    one element (e.g. to encode pointers as pool handles).
 * std::vector and other resizable containers have no default
 * encoding: wrap them in std::span (fixed size) or sized<W>.
 *
 * A third wrapper, `named("rob_size", x)`, is byte-neutral: both
 * archives see only x. It gives the field a snake_case name for
 * FieldPaths, which walks the same visitor by dotted path
 * ("cdf.load_table.entries"). The config structs (ooo::CoreConfig
 * and everything it holds) name every field this way, so one list
 * drives the warmup key, the spec overrides and the Table 1 dump.
 *
 * State with no symmetric encoding (pointer handles, presence
 * checks, rebuilt indexes) is written inside fields() as explicit
 * steps, branching on `Ar::kLoading`. Restore-side checks are
 * written `SIM_ASSERT(!Ar::kLoading || cond, ...)` so they compile
 * away when saving.
 *
 * The format carries no per-field tags: a layout change is caught by
 * the checkpoint schema version (sim/snapshot.cc), which the layout
 * pin in tests/test_snapshot.cc forces to be bumped, and at the
 * source level by the SIM_SNAPSHOT_FIELDS lint contract below.
 */

#ifndef CDFSIM_COMMON_SERIALIZE_HH
#define CDFSIM_COMMON_SERIALIZE_HH

#include <array>
#include <bit>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"

/**
 * Snapshot field-count contract, checked by `tools/lint_sim`
 * (rule `snapshot-fields`): every class with a `fields(...)` member
 * (or a remaining hand-written `save*()` codec) must carry
 * `SIM_SNAPSHOT_FIELDS(n)` where @p n is the number of data members
 * the class declares — including members that are deliberately
 * *not* serialized (host-only profiling state, cached stat
 * references). Adding a member without bumping the count fails the
 * lint, which forces the author to decide whether the new member
 * belongs in fields().
 */
#define SIM_SNAPSHOT_FIELDS(n) \
    static_assert((n) > 0, "snapshot field count must be positive")

namespace cdfsim
{

/** Puts @p ref on the wire as a @p W; see as(). */
template <typename W, typename T>
struct AsWidth
{
    T &ref;
};

/** `ar(as<std::uint8_t>(mode_))`: serialize @p ref at width @p W. */
template <typename W, typename T>
AsWidth<W, T>
as(T &ref)
{
    return {ref};
}

/** A field tagged with its snake_case name; see named(). */
template <typename T>
struct Named
{
    const char *name;
    T &ref;
};

/** `ar(named("rob_size", robSize))`: visit @p ref as field @p name. */
template <typename T>
Named<T>
named(const char *name, T &ref)
{
    return {name, ref};
}

/** Default element visitor of sized(): `ar(x)`. */
struct VisitField
{
    template <typename Ar, typename T>
    void
    operator()(Ar &ar, T &x) const
    {
        ar(x);
    }
};

/** A length-prefixed sequence; see sized(). */
template <typename W, typename C, typename F>
struct Sized
{
    C &seq;
    F elem;
};

/**
 * `ar(sized<std::uint32_t>(vec))`: a @p W element count, then each
 * element through @p elem(ar, element). Restore resizes @p seq.
 */
template <typename W, typename C, typename F = VisitField>
Sized<W, C, F>
sized(C &seq, F elem = F{})
{
    return {seq, std::move(elem)};
}

/** Append-only little-endian byte-stream writer (saving archive). */
class SnapWriter
{
  public:
    static constexpr bool kLoading = false;

    /** Serialize each argument in order. */
    template <typename... T>
    void
    operator()(const T &...xs)
    {
        (put(xs), ...);
    }

    void u8(std::uint8_t v) { le(v); }
    void u16(std::uint16_t v) { le(v); }
    void u32(std::uint32_t v) { le(v); }
    void u64(std::uint64_t v) { le(v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(std::string_view s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** FNV-1a over everything written so far. */
    std::uint64_t fnv1a() const { return fnv1a64(buf_); }

    /** Move the accumulated bytes out (leaves the writer empty). */
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    /** Append the little-endian bytes of @p v in one step. */
    template <typename U>
    void
    le(U v)
    {
        std::uint8_t bytes[sizeof(U)];
        for (std::size_t i = 0; i < sizeof(U); ++i)
            bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
        buf_.insert(buf_.end(), bytes, bytes + sizeof(U));
    }

    template <typename T>
    void
    put(const T &x)
    {
        if constexpr (std::is_same_v<T, bool>) {
            b(x);
        } else if constexpr (std::is_enum_v<T>) {
            put(static_cast<std::underlying_type_t<T>>(x));
        } else if constexpr (std::is_integral_v<T>) {
            le(static_cast<std::make_unsigned_t<T>>(x));
        } else if constexpr (std::is_same_v<T, double>) {
            f64(x);
        } else {
            // Saving never mutates: fields() is shared with restore,
            // hence non-const.
            const_cast<T &>(x).fields(*this);
        }
    }

    void put(const std::string &s) { str(s); }

    template <std::size_t N>
    void
    put(const std::bitset<N> &x)
    {
        const std::bitset<N> word{~std::uint64_t{0}};
        for (std::size_t lo = 0; lo < N; lo += 64)
            u64(((x >> lo) & word).to_ullong());
    }

    template <typename A, typename B>
    void
    put(const std::pair<A, B> &x)
    {
        put(x.first);
        put(x.second);
    }

    template <typename T, std::size_t N>
    void
    put(const std::array<T, N> &x)
    {
        for (const T &e : x)
            put(e);
    }

    template <typename T, std::size_t E>
    void
    put(const std::span<T, E> &x)
    {
        for (const T &e : x)
            put(e);
    }

    template <typename W, typename T>
    void
    put(const AsWidth<W, T> &x)
    {
        put(static_cast<W>(x.ref));
    }

    template <typename T>
    void
    put(const Named<T> &x)
    {
        put(x.ref);
    }

    template <typename W, typename C, typename F>
    void
    put(const Sized<W, C, F> &x)
    {
        SIM_ASSERT(x.seq.size() <= std::numeric_limits<W>::max(),
                   "sequence of ", x.seq.size(),
                   " elements overflows its snapshot length prefix");
        put(static_cast<W>(x.seq.size()));
        for (auto &e : x.seq)
            x.elem(*this, e);
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader over a byte buffer produced by SnapWriter
 * (restoring archive).
 */
class SnapReader
{
  public:
    static constexpr bool kLoading = true;

    SnapReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit SnapReader(const std::vector<std::uint8_t> &buf)
        : SnapReader(buf.data(), buf.size())
    {
    }

    /** Assign each argument from the stream, in order. */
    template <typename... T>
    void
    operator()(T &&...xs)
    {
        (get(xs), ...);
    }

    std::uint8_t u8() { return le<std::uint8_t>(); }
    std::uint16_t u16() { return le<std::uint16_t>(); }
    std::uint32_t u32() { return le<std::uint32_t>(); }
    std::uint64_t u64() { return le<std::uint64_t>(); }

    bool b() { return u8() != 0; }
    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        SIM_ASSERT(n <= size_ - pos_,
                   "snapshot string length ", n, " overruns stream");
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    bool done() const { return pos_ == size_; }
    std::size_t pos() const { return pos_; }
    std::size_t size() const { return size_; }

  private:
    /** Read a little-endian @p U with one bounds check. */
    template <typename U>
    U
    le()
    {
        SIM_ASSERT(sizeof(U) <= size_ - pos_,
                   "snapshot stream underrun at byte ", pos_, " of ",
                   size_);
        U v = 0;
        for (std::size_t i = 0; i < sizeof(U); ++i)
            v |= static_cast<U>(U{data_[pos_ + i]} << (8 * i));
        pos_ += sizeof(U);
        return v;
    }

    template <typename T>
    void
    get(T &x)
    {
        if constexpr (std::is_same_v<T, bool>) {
            x = b();
        } else if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> v{};
            get(v);
            x = static_cast<T>(v);
        } else if constexpr (std::is_integral_v<T>) {
            x = static_cast<T>(le<std::make_unsigned_t<T>>());
        } else if constexpr (std::is_same_v<T, double>) {
            x = f64();
        } else {
            x.fields(*this);
        }
    }

    void get(std::string &s) { s = str(); }

    template <std::size_t N>
    void
    get(std::bitset<N> &x)
    {
        x.reset();
        for (std::size_t lo = 0; lo < N; lo += 64)
            x |= std::bitset<N>{u64()} << lo;
    }

    template <typename A, typename B>
    void
    get(std::pair<A, B> &x)
    {
        get(x.first);
        get(x.second);
    }

    template <typename T, std::size_t N>
    void
    get(std::array<T, N> &x)
    {
        for (T &e : x)
            get(e);
    }

    template <typename T, std::size_t E>
    void
    get(std::span<T, E> &x)
    {
        for (T &e : x)
            get(e);
    }

    template <typename W, typename T>
    void
    get(AsWidth<W, T> &x)
    {
        W v{};
        get(v);
        x.ref = static_cast<T>(v);
    }

    template <typename T>
    void
    get(Named<T> &x)
    {
        get(x.ref);
    }

    template <typename W, typename C, typename F>
    void
    get(Sized<W, C, F> &x)
    {
        W n{};
        get(n);
        // Every element takes at least one byte on the wire.
        SIM_ASSERT(n <= size_ - pos_, "snapshot sequence length ", n,
                   " overruns stream");
        x.seq.clear();
        x.seq.resize(static_cast<std::size_t>(n));
        for (auto &e : x.seq)
            x.elem(*this, e);
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/**
 * Archive that walks a fields() visitor whose every argument is
 * named(), calling fn(path, ref) on each leaf. The path joins the
 * names from the root with '.'; a named member that has its own
 * fields() is descended into instead of reported.
 */
template <typename F>
class FieldPaths
{
  public:
    explicit FieldPaths(F fn) : fn_(std::move(fn)) {}

    template <typename... T>
    void
    operator()(T &&...xs)
    {
        (visit(xs), ...);
    }

  private:
    template <typename T>
    void
    visit(Named<T> &x)
    {
        const std::size_t mark = path_.size();
        if (mark != 0)
            path_ += '.';
        path_ += x.name;
        if constexpr (requires { x.ref.fields(*this); })
            x.ref.fields(*this);
        else
            fn_(std::string_view(path_), x.ref);
        path_.resize(mark);
    }

    F fn_;
    std::string path_;
};

/** Call @p fn(path, ref) on every named leaf of @p obj.fields(). */
template <typename T, typename F>
void
forEachField(T &obj, F fn)
{
    FieldPaths<F> walk(std::move(fn));
    obj.fields(walk);
}

} // namespace cdfsim

#endif // CDFSIM_COMMON_SERIALIZE_HH
