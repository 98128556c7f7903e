/**
 * @file
 * SIM_AUDIT: runtime invariant instrumentation for the hand-rolled
 * hot-path structures (SlabPool, the completion-cycle list, the
 * completion heap, TAGE's folded histories).
 *
 * The stat gate (tests/test_stat_gate) proves the simulator's numbers
 * are bit-identical across refactors, but "golden" numbers can still
 * be wrong if a structure silently violates its own invariants (a
 * pool slot both live and on the free list, a heap that lost order
 * after a squash rebuild, a folded history that drifted from the
 * naive recompute). This layer makes those violations loud:
 *
 *  - Every audited structure exposes an always-compiled
 *    auditInvariants() method that walks the structure and panics
 *    (via SIM_ASSERT, so tests can catch PanicError) on the first
 *    inconsistency. Tests call it directly in any build type.
 *
 *  - Hot paths call it through the SIM_AUDIT / SIM_AUDIT_ONLY macros
 *    below, which compile to nothing unless CDFSIM_AUDIT is defined
 *    (the Audit build: cmake --preset audit, or -DSIM_AUDIT=ON).
 *    Release/RelWithDebInfo binaries carry zero audit code on the
 *    tick path.
 *
 *  - Expensive whole-structure walks are rate-limited with an
 *    AuditSampler so the Audit build stays fast enough to run the
 *    audit_sweep workload matrix; cheap O(1) checks run on every
 *    audited operation.
 */

#ifndef CDFSIM_COMMON_AUDIT_HH
#define CDFSIM_COMMON_AUDIT_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/serialize.hh"

// Defined to 1 globally by -DSIM_AUDIT=ON (or the Audit build type)
// and per-target by tests that exercise the macro layer itself.
#ifndef CDFSIM_AUDIT
#define CDFSIM_AUDIT 0
#endif

#if CDFSIM_AUDIT
#define SIM_AUDIT_ENABLED 1

/** Audit-build assertion: SIM_ASSERT that vanishes in Release. */
#define SIM_AUDIT(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::cdfsim::panic("audit: '", #cond, "' failed at ", __FILE__,    \
                            ":", __LINE__, " ", ##__VA_ARGS__);             \
        }                                                                   \
    } while (0)

/** Statement(s) compiled only into Audit builds. */
#define SIM_AUDIT_ONLY(...) __VA_ARGS__

#else
#define SIM_AUDIT_ENABLED 0
#define SIM_AUDIT(cond, ...)                                                \
    do {                                                                    \
    } while (0)
#define SIM_AUDIT_ONLY(...)
#endif

namespace cdfsim
{

/**
 * Rate limiter for expensive audit walks: due() is true once every
 * @p interval calls. The member exists in every build (so struct
 * layouts match between Release and Audit objects) but is only
 * ticked from inside SIM_AUDIT_ONLY regions, so Release pays nothing
 * at runtime. Deterministic by construction — a pure call counter,
 * no clocks and no randomness — so an Audit run audits the same
 * operations every time.
 */
class AuditSampler
{
  public:
    explicit AuditSampler(std::uint32_t interval = 1024)
        : interval_(interval)
    {
    }

    /** Count one audited operation; true when a full walk is due. */
    bool
    due()
    {
        if (++count_ >= interval_) {
            count_ = 0;
            return true;
        }
        return false;
    }

    std::uint32_t interval() const { return interval_; }

    /** Snapshot the call count (the interval is the owner's), so a
     *  restored Audit run walks at the same operations as a cold
     *  one. Release builds never tick, so they save zero. */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(count_);
    }

  private:
    SIM_SNAPSHOT_FIELDS(2);

    std::uint32_t interval_;
    std::uint32_t count_ = 0;
};

/**
 * Test-only backdoor: audited structures befriend this struct so the
 * audit unit tests (tests/test_audit.cc) can deliberately corrupt
 * private state and prove each auditInvariants() actually fires.
 * Never defined in the simulator itself.
 */
struct AuditPeer;

} // namespace cdfsim

#endif // CDFSIM_COMMON_AUDIT_HH
