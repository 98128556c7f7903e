/**
 * @file
 * Parallel sweep execution over a declarative run matrix.
 *
 * Every figure/ablation harness is the same shape: a matrix of
 * (workload x core mode x config overrides x run spec) cells, each
 * of which builds one independent Simulator and produces one
 * RunResult. Cells share no mutable state (each owns its memory
 * image, stat registry and PRNGs), so SweepRunner fans them out
 * over a thread pool and the results are bit-identical to a serial
 * run — only wall-clock time changes.
 *
 * This header also owns the JSON serialization of results
 * (toJson), so sweeps can be persisted as diffable BENCH_*.json
 * artifacts and tracked across PRs.
 */

#ifndef CDFSIM_SIM_SWEEP_HH
#define CDFSIM_SIM_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/simulator.hh"

namespace cdfsim::sim
{

/** One cell of the run matrix. */
struct SweepCell
{
    std::string workload;            //!< workloads::makeWorkload name
    std::string variant = "default"; //!< harness label, e.g. "cdf_nobr"
    ooo::CoreMode mode = ooo::CoreMode::Baseline;
    ooo::CoreConfig config{}; //!< mode is overwritten from `mode`
    RunSpec spec{};
};

/** A cell plus everything running it produced. */
struct SweepOutcome
{
    SweepCell cell;
    RunResult run;
    /** Non-empty when the cell died with a panic/fatal error. */
    std::string error;
    /** The cell belongs to another shard and was never executed
     *  (bench::Harness --shard). Not a failure: the row simply has
     *  no data in this process. */
    bool skipped = false;

    bool failed() const { return !error.empty() || !run.ok(); }
};

/** Called after each cell completes (serialized; any thread). */
using SweepProgressFn = std::function<void(
    const SweepOutcome &outcome, std::size_t done, std::size_t total)>;

/**
 * Thread-pool executor for a run matrix.
 *
 * runAll() preserves cell order in its result vector regardless of
 * completion order, so downstream aggregation (tables, geomeans,
 * JSON) is deterministic. A panicking cell is captured into
 * SweepOutcome::error instead of tearing down the whole sweep.
 *
 * Cells sharing a warmup (same sim::warmupKey — workload, mode,
 * warmup-relevant config and warmup length) warm up ONCE: the first
 * cell of each group to start acts as leader, snapshots its state at
 * the warmup/measure boundary (Simulator::saveState), and the rest
 * restore from that in-memory checkpoint instead of re-simulating
 * the warmup. With setCheckpointDir(), checkpoints additionally
 * spill to / load from disk, so separate bench processes over the
 * same matrix (fig13 then fig14...) share warmups too. Restoring is
 * bit-identical to warming (tests/test_snapshot), so memoization
 * changes wall-clock time only — never a stat, result or artifact.
 *
 * runAll() holds only what a live cell needs. Each workload (program
 * plus pristine memory image) is built on the pool by the first cell
 * that names it, once per runAll — the others wait for that build —
 * and the runner drops it when the last cell naming it finishes. A
 * group's checkpoint payload is freed once every member has let go
 * of it: a follower after its restore, the leader after its file
 * write (so a singleton group frees it at once). CkptStats counts
 * both.
 */
class SweepRunner
{
  public:
    /** @param threads Worker count; 0 = hardware concurrency. */
    explicit SweepRunner(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /** Spill/load warmup checkpoints under @p dir (empty string
     *  disables the on-disk cache; in-memory sharing still runs).
     *  The directory must already exist. */
    void setCheckpointDir(std::string dir) { ckptDir_ = std::move(dir); }
    const std::string &checkpointDir() const { return ckptDir_; }

    /** Host-side accounting of the last runAll() (bench "timing"). */
    struct CkptStats
    {
        std::uint64_t hits = 0;   //!< cells that restored a checkpoint
        std::uint64_t misses = 0; //!< cells that warmed from scratch
        double restoreSeconds = 0.0; //!< host time in restoreState()
        std::uint64_t builds = 0; //!< workload builds (one per name)

        /** What the runner holds of one kind: now (0 once runAll
         *  has returned, as everything is let go at its last use)
         *  and at most at once. */
        struct Held
        {
            std::uint64_t now = 0;
            std::uint64_t peak = 0;
        };
        Held images;   //!< pristine workload images
        Held payloads; //!< checkpoint payloads
    };
    const CkptStats &ckptStats() const { return ckptStats_; }

    std::vector<SweepOutcome>
    runAll(const std::vector<SweepCell> &cells,
           const SweepProgressFn &progress = {});

  private:
    unsigned threads_;
    std::string ckptDir_;
    CkptStats ckptStats_;
};

/** Lower-case mode name: "baseline", "cdf", "pre". */
const char *toString(ooo::CoreMode mode);

// --- JSON serialization of results (schema in README.md) ---
Json toJson(const RunSpec &spec);
Json toJson(const ooo::CoreResult &core);
Json toJson(const energy::EnergyReport &energy);
Json toJson(const RunResult &run);
Json toJson(const SweepOutcome &outcome);

} // namespace cdfsim::sim

#endif // CDFSIM_SIM_SWEEP_HH
