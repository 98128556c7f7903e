/**
 * @file
 * High-level simulation facade: build a core for a workload, warm it
 * up, measure, and report. This is the public API the examples and
 * the benchmark harnesses drive.
 */

#ifndef CDFSIM_SIM_SIMULATOR_HH
#define CDFSIM_SIM_SIMULATOR_HH

#include <memory>
#include <string>

#include "common/serialize.hh"
#include "common/stats.hh"
#include "energy/energy_model.hh"
#include "ooo/core.hh"
#include "workloads/workloads.hh"

namespace cdfsim::sim
{

/** What to run and for how long. */
struct RunSpec
{
    std::uint64_t warmupInstrs = 300'000;
    std::uint64_t measureInstrs = 200'000;
    /**
     * Hard safety stop, PER PHASE: warmup and measurement each get
     * this many cycles of budget relative to the cycle they start
     * at, so a slow warmup can never eat into the measurement
     * window. A phase that exhausts its budget marks the run
     * truncated in RunResult instead of silently under-measuring.
     */
    Cycle maxCycles = 400'000'000;
};

/** Everything a run produces. */
struct RunResult
{
    std::string workload;
    ooo::CoreMode mode = ooo::CoreMode::Baseline;
    ooo::CoreResult core;
    energy::EnergyReport energy;
    StatRegistry stats; //!< snapshot of the counters
    /** Host-time per pipeline stage (CoreConfig::profileStages).
     *  Host-side only: deliberately kept out of toJson(RunResult)
     *  so profiled and unprofiled artifacts compare bit-identically
     *  outside the "timing" object. */
    ooo::StageProfile profile;

    /** Measurement-phase cycles fast-forwarded by the idle-skip path
     *  and the number of jumps. Host-side only, same contract as
     *  `profile`: excluded from toJson(RunResult), surfaced in the
     *  bench "timing" object (timing.skipped_cycles/skip_events). */
    std::uint64_t skippedCycles = 0;
    std::uint64_t skipEvents = 0;

    /** The program ran out of instructions before measurement ended. */
    bool halted = false;
    /** Warmup hit its cycle budget before warmupInstrs retired. */
    bool warmupTruncated = false;
    /** Measurement hit its cycle budget before measureInstrs retired. */
    bool truncated = false;

    /** True when the measurement window is trustworthy. */
    bool
    ok() const
    {
        return !halted && !truncated && !warmupTruncated;
    }

    /** Short status tag for tables/logs: "ok", "halted", ... */
    const char *status() const;
};

/**
 * Owns one core + memory + stats for one workload run.
 *
 * Usage:
 * @code
 *   Simulator sim(config, workloads::makeWorkload("astar"));
 *   RunResult r = sim.run({});
 * @endcode
 *
 * run() is exactly warmup() followed by measure(); the split exists
 * so the warmup checkpointing layer (sim/snapshot.hh, SweepRunner)
 * can snapshot at the phase boundary with saveState() and later
 * resume a fresh same-config Simulator from it with restoreState().
 * A restored simulator is indistinguishable from one that warmed up
 * itself: measure() after restoreState() produces byte-identical
 * results.
 */
class Simulator
{
  public:
    Simulator(const ooo::CoreConfig &config,
              workloads::Workload workload);

    /**
     * Shared-workload constructor: the program and the pristine
     * post-init memory image are immutable and shared across every
     * Simulator for the same workload (SweepRunner builds them once
     * per name). The data memory starts as a copy-on-write copy of
     * @p pristine, so cells only pay for the pages they dirty.
     */
    Simulator(const ooo::CoreConfig &config,
              std::shared_ptr<const workloads::Workload> workload,
              std::shared_ptr<const isa::MemoryImage> pristine);
    ~Simulator();

    /** Warm up, reset stats, measure, and summarize. */
    RunResult run(const RunSpec &spec);

    /** Run only the warmup phase; returns "warmup was truncated".
     *  run(spec) == measure(spec, warmup(spec)), byte for byte. */
    bool warmup(const RunSpec &spec);

    /** Reset the measurement window and run the measure phase.
     *  @p warmupTruncated is echoed into the result (it is warmup
     *  provenance, carried by checkpoints for restored runs). */
    RunResult measure(const RunSpec &spec, bool warmupTruncated);

    /**
     * Serialize the complete simulator state: every stat counter,
     * the memory delta against the shared pristine image, and the
     * full core (pipeline, predictors, caches, CDF/PRE machinery,
     * interpreter/oracle cursors). Call at a phase boundary (after
     * warmup()); host-only profiling state is excluded by contract.
     */
    void saveState(SnapWriter &w) const;

    /** Inverse of saveState(). The simulator must have been built
     *  with the same config and workload as the saved one, and the
     *  payload must be consumed exactly (trailing bytes panic). */
    void restoreState(SnapReader &r);

    /** The snapshot visitor behind saveState()/restoreState(). */
    template <typename Ar>
    void fields(Ar &ar);

    ooo::Core &core() { return *core_; }
    StatRegistry &stats() { return stats_; }
    const workloads::Workload &workload() const { return *workload_; }

  private:
    SIM_SNAPSHOT_FIELDS(6);

    ooo::CoreConfig config_;
    std::shared_ptr<const workloads::Workload> workload_;
    /** Post-init memory image; memory_ deltas are taken against it. */
    std::shared_ptr<const isa::MemoryImage> pristine_;
    StatRegistry stats_;
    isa::MemoryImage memory_;
    std::unique_ptr<ooo::Core> core_;
};

/**
 * Convenience one-shot: run @p workloadName under @p mode with the
 * default Table-1 configuration.
 */
RunResult runWorkload(const std::string &workloadName,
                      ooo::CoreMode mode, const RunSpec &spec = {},
                      const ooo::CoreConfig &base = {});

/** Geometric mean of a vector of ratios (all must be positive). */
double geomean(const std::vector<double> &values);

/**
 * Geometric mean over only the positive entries. Non-positive
 * entries (a halted/zero-IPC run yields a 0 ratio) are excluded
 * rather than asserting; @p excluded, when non-null, receives how
 * many were dropped so callers can warn visibly.
 */
double geomeanPositive(const std::vector<double> &values,
                       std::size_t *excluded = nullptr);

} // namespace cdfsim::sim

#endif // CDFSIM_SIM_SIMULATOR_HH
