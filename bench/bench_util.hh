/**
 * @file
 * Shared harness for the bench drivers: bench_sweep_spec (every
 * figure and ablation, from a JSON matrix under bench/specs/) and
 * bench_table1_config.
 *
 * A driver queues its matrix as (workload, variant, mode, config,
 * spec) cells, executes them through sim::SweepRunner on a thread
 * pool, and writes one JSON artifact. Every driver shares one CLI:
 *
 *   --threads N          worker threads (default: hardware concurrency)
 *   --workloads a,b,c    restrict to a comma-separated subset
 *   --json out.json      write machine-readable results
 *   --measure-instrs N   override the measurement window
 *   --warmup-instrs N    override the warmup window
 *   --max-cycles N       override the per-phase cycle budget
 *   --shard i/N          run only cells j with j mod N == i
 *   --ckpt-dir DIR       spill/load warmup checkpoints under DIR
 *   --profile            per-stage host-time breakdown
 *
 * --ckpt-dir persists post-warmup simulator snapshots keyed by
 * (workload, mode, warmup-relevant config, warmup length), so
 * figure specs sharing a matrix (fig13, then fig14/15/16) warm
 * each cell once per DIR instead of once per process. Restoring is
 * bit-identical to warming (sim/snapshot.hh), so artifacts are
 * unchanged outside "timing"; checkpoint traffic is reported in
 * timing.ckpt_{hits,misses,restore_seconds}.
 *
 * Parallel and serial runs of the same matrix produce bit-identical
 * results (and bit-identical JSON modulo the "timing" object).
 *
 * Sharding is deterministic round-robin over the declared cell
 * order, so the N shard artifacts of any --shard partition together
 * cover exactly the full matrix; tools/bench_merge re-interleaves
 * them into one artifact bit-identical (modulo "timing") to a
 * single-process --shard 0/1 run. Sharded artifacts omit "derived"
 * — whole-matrix aggregates are not computable from one shard.
 */

#ifndef CDFSIM_BENCH_BENCH_UTIL_HH
#define CDFSIM_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "sim/sweep.hh"

namespace cdfsim::bench
{

/** The shared bench driver. */
class Harness
{
  public:
    Harness(std::string name, int argc, char **argv)
        : name_(std::move(name)), derived_(Json::object())
    {
        parseArgs(argc, argv);
        runner_ = sim::SweepRunner(threadsFlag_);
        if (!ckptDir_.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(ckptDir_, ec);
            if (ec) {
                std::fprintf(stderr,
                             "%s: cannot create --ckpt-dir %s: %s\n",
                             name_.c_str(), ckptDir_.c_str(),
                             ec.message().c_str());
                std::exit(2);
            }
            runner_.setCheckpointDir(ckptDir_);
        }
    }

    unsigned threads() const { return runner_.threads(); }

    /** Exit 2 with a diagnostic when --workloads names a workload
     *  outside @p available. */
    void
    checkWorkloads(const std::vector<std::string> &available) const
    {
        for (const auto &want : workloadFilter_) {
            bool known = false;
            for (const auto &a : available)
                known = known || a == want;
            if (!known) {
                std::fprintf(stderr,
                             "%s: unknown workload '%s' (not in this "
                             "bench's set)\n",
                             name_.c_str(), want.c_str());
                std::exit(2);
            }
        }
    }

    /** Queue a whole expanded matrix, preserving its order. The CLI
     *  window overrides (--measure-instrs & co) are applied to every
     *  cell. */
    void
    addCells(std::vector<sim::SweepCell> cells)
    {
        for (auto &cell : cells) {
            if (measureInstrs_ != kUnset)
                cell.spec.measureInstrs = measureInstrs_;
            if (warmupInstrs_ != kUnset)
                cell.spec.warmupInstrs = warmupInstrs_;
            if (maxCycles_ != kUnset)
                cell.spec.maxCycles = maxCycles_;
            cell.config.mode = cell.mode;
            cell.config.profileStages = profile_;
            cells_.push_back(std::move(cell));
        }
    }

    /** The raw --workloads filter (empty when the flag was absent). */
    const std::vector<std::string> &
    workloadFilter() const
    {
        return workloadFilter_;
    }

    /** Execute this shard's share of the queued cells (the whole
     *  matrix unless --shard was given). */
    void
    run()
    {
        std::vector<sim::SweepCell> assigned;
        std::vector<std::size_t> assignedIdx;
        assigned.reserve(cells_.size());
        for (std::size_t j = 0; j < cells_.size(); ++j) {
            if (j % shardCount_ == shardIndex_) {
                assigned.push_back(cells_[j]);
                assignedIdx.push_back(j);
            }
        }
        if (shardGiven_) {
            std::fprintf(stderr,
                         "%s: shard %u/%u runs %zu of %zu cells "
                         "(tables cover this shard only)\n",
                         name_.c_str(), shardIndex_, shardCount_,
                         assigned.size(), cells_.size());
        }

        const auto t0 = std::chrono::steady_clock::now();
        std::vector<sim::SweepOutcome> got =
            runner_.runAll(assigned);
        wallSeconds_ = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

        outcomes_.clear();
        outcomes_.resize(cells_.size());
        for (std::size_t j = 0; j < cells_.size(); ++j) {
            outcomes_[j].cell = cells_[j];
            outcomes_[j].skipped = true;
        }
        for (std::size_t k = 0; k < got.size(); ++k)
            outcomes_[assignedIdx[k]] = std::move(got[k]);

        for (const auto &o : outcomes_) {
            if (o.skipped) {
                continue;
            } else if (!o.error.empty()) {
                std::fprintf(stderr, "warning: %s/%s failed: %s\n",
                             o.cell.workload.c_str(),
                             o.cell.variant.c_str(), o.error.c_str());
            } else if (!o.run.ok()) {
                std::fprintf(stderr, "warning: %s/%s run is %s\n",
                             o.cell.workload.c_str(),
                             o.cell.variant.c_str(), o.run.status());
            }
        }
    }

    const std::vector<sim::SweepOutcome> &outcomes() const
    {
        return outcomes_;
    }

    /** Sum the per-stage host-time profiles over every run. */
    ooo::StageProfile
    aggregateProfile() const
    {
        ooo::StageProfile total;
        for (const auto &o : outcomes_) {
            for (unsigned s = 0; s < ooo::StageProfile::kNumStages;
                 ++s)
                total.ns[s] += o.run.profile.ns[s];
            for (unsigned l = 0;
                 l < mem::MemLevelProfile::kNumLevels; ++l) {
                total.mem.ns[l] += o.run.profile.mem.ns[l];
                total.mem.accesses[l] +=
                    o.run.profile.mem.accesses[l];
            }
            total.ticks += o.run.profile.ticks;
        }
        return total;
    }

    /** Print the --profile per-stage breakdown to stderr. */
    void
    printProfile() const
    {
        const ooo::StageProfile p = aggregateProfile();
        std::uint64_t totalNs = 0;
        for (unsigned s = 0; s < ooo::StageProfile::kNumStages; ++s)
            totalNs += p.ns[s];
        if (p.ticks == 0 || totalNs == 0) {
            std::fprintf(stderr,
                         "--profile: no stage samples collected\n");
            return;
        }
        std::fprintf(stderr,
                     "\nper-stage host time (%llu ticks):\n",
                     static_cast<unsigned long long>(p.ticks));
        for (unsigned s = 0; s < ooo::StageProfile::kNumStages; ++s) {
            std::fprintf(
                stderr, "  %-10s %8.1f ns/tick  %5.1f%%\n",
                ooo::StageProfile::name(s),
                static_cast<double>(p.ns[s]) /
                    static_cast<double>(p.ticks),
                100.0 * static_cast<double>(p.ns[s]) /
                    static_cast<double>(totalNs));
        }
        // Memory-hierarchy time by deepest level reached — a
        // breakdown *within* the stage rows above, not additional
        // time.
        std::fprintf(stderr, "of which, memory hierarchy:\n");
        for (unsigned l = 0; l < mem::MemLevelProfile::kNumLevels;
             ++l) {
            std::fprintf(
                stderr,
                "  %-10s %8.1f ns/tick  %5.1f%%  (%llu accesses)\n",
                mem::MemLevelProfile::name(l),
                static_cast<double>(p.mem.ns[l]) /
                    static_cast<double>(p.ticks),
                100.0 * static_cast<double>(p.mem.ns[l]) /
                    static_cast<double>(totalNs),
                static_cast<unsigned long long>(p.mem.accesses[l]));
        }
    }

    std::size_t
    failures() const
    {
        std::size_t n = 0;
        for (const auto &o : outcomes_)
            n += o.failed() ? 1 : 0;
        return n;
    }

    /** Bench-specific derived values for the JSON artifact. */
    Json &derived() { return derived_; }

    /**
     * Write the JSON artifact when --json was given. Returns the
     * process exit code: 1 when the artifact cannot be written or
     * any cell threw (its "error" is set; the artifact is still
     * written first, with the row marked), else 0. Halted or
     * truncated runs are results, not errors, and do not change it.
     */
    int
    finish() const
    {
        if (profile_)
            printProfile();
        std::size_t errored = 0;
        for (const auto &o : outcomes_)
            errored += !o.skipped && !o.error.empty() ? 1 : 0;
        const int cellRc = errored > 0 ? 1 : 0;
        if (errored > 0) {
            std::fprintf(stderr, "%s: %zu cell(s) failed with an error\n",
                         name_.c_str(), errored);
        }
        if (jsonPath_.empty())
            return cellRc;
        Json doc = Json::object();
        doc["bench"] = name_;
        doc["schema_version"] = 1;
        Json runs = Json::array();
        std::size_t emitted = 0;
        for (const auto &o : outcomes_) {
            if (o.skipped)
                continue;
            runs.push_back(sim::toJson(o));
            ++emitted;
        }
        doc["runs"] = std::move(runs);
        // Sharded artifacts omit "derived": whole-matrix aggregates
        // (geomeans over every cell) are not computable from one
        // shard, and bench_merge cannot reconstruct them. This also
        // makes a --shard 0/1 run the byte-exact reference for a
        // merged artifact. Undefined aggregates (NaN — a geomean
        // with every row excluded) are dropped rather than
        // serialized: the JSON writer would emit them as null, which
        // downstream tools rightly treat as a malformed artifact.
        if (!shardGiven_ && derived_.size() > 0) {
            Json pruned = pruneUndefined(derived_, "derived");
            if (pruned.size() > 0)
                doc["derived"] = std::move(pruned);
        }
        // Timing metadata lives in ONE object so results can be
        // compared bit-identically across thread counts by dropping
        // the "timing" member. Shard identity also lives here: it
        // describes *this process*, not the simulated results.
        Json timing = Json::object();
        timing["threads"] = runner_.threads();
        timing["wall_seconds"] = wallSeconds_;
        if (shardGiven_) {
            Json shard = Json::object();
            shard["index"] = shardIndex_;
            shard["count"] = shardCount_;
            timing["shard"] = std::move(shard);
        }
        std::uint64_t measuredInstrs = 0;
        std::uint64_t skippedCycles = 0;
        std::uint64_t skipEvents = 0;
        for (const auto &o : outcomes_) {
            measuredInstrs += o.run.core.retiredInstrs;
            skippedCycles += o.run.skippedCycles;
            skipEvents += o.run.skipEvents;
        }
        // Idle-skip totals are host-side run metadata (the skipped
        // cycles ARE simulated, just fast-forwarded), so they live
        // in "timing" with the rest of the host measurements.
        timing["skipped_cycles"] = skippedCycles;
        timing["skip_events"] = skipEvents;
        // Warmup-checkpoint traffic: hits restored a memoized or
        // on-disk checkpoint, misses warmed from scratch. Host-side
        // only — the simulated results are bit-identical either way.
        timing["ckpt_hits"] = runner_.ckptStats().hits;
        timing["ckpt_misses"] = runner_.ckptStats().misses;
        timing["ckpt_restore_seconds"] =
            runner_.ckptStats().restoreSeconds;
        timing["sim_kuops_per_sec"] =
            wallSeconds_ > 0.0
                ? static_cast<double>(measuredInstrs) /
                      wallSeconds_ / 1e3
                : 0.0;
        if (profile_)
            timing["profile"] = profileJson();
        doc["timing"] = std::move(timing);

        std::ofstream out(jsonPath_);
        if (!out) {
            std::fprintf(stderr, "%s: cannot write %s\n",
                         name_.c_str(), jsonPath_.c_str());
            return 1;
        }
        out << doc.dump(2);
        std::fprintf(stderr, "wrote %s (%zu runs)\n",
                     jsonPath_.c_str(), emitted);
        return cellRc;
    }

  private:
    static constexpr std::uint64_t kUnset =
        std::numeric_limits<std::uint64_t>::max();

    /**
     * Copy @p node minus any NaN members (recursively), warning
     * visibly for each dropped key: a NaN aggregate means every row
     * was excluded (all halted/zero), and "no value" is honest where
     * a serialized null would just be garbage for consumers.
     */
    static Json
    pruneUndefined(const Json &node, const std::string &path)
    {
        if (node.type() == Json::Type::Object) {
            Json out = Json::object();
            for (const auto &kv : node.members()) {
                Json child =
                    pruneUndefined(kv.second, path + "." + kv.first);
                if (!child.isNull())
                    out[kv.first] = std::move(child);
            }
            return out;
        }
        if (node.type() == Json::Type::Double &&
            std::isnan(node.asNumber())) {
            std::fprintf(stderr,
                         "warning: %s is undefined (every row "
                         "excluded); omitting it from the artifact\n",
                         path.c_str());
            return Json();
        }
        return node;
    }

    Json
    profileJson() const
    {
        const ooo::StageProfile p = aggregateProfile();
        Json obj = Json::object();
        obj["ticks"] = p.ticks;
        for (unsigned s = 0; s < ooo::StageProfile::kNumStages; ++s) {
            obj[std::string(ooo::StageProfile::name(s)) + "_ns"] =
                p.ns[s];
        }
        for (unsigned l = 0; l < mem::MemLevelProfile::kNumLevels;
             ++l) {
            const std::string key = mem::MemLevelProfile::name(l);
            obj[key + "_ns"] = p.mem.ns[l];
            obj[key + "_accesses"] = p.mem.accesses[l];
        }
        return obj;
    }

    [[noreturn]] void
    usage(int code) const
    {
        std::fprintf(
            stderr,
            "usage: %s [--threads N] [--workloads a,b,c] "
            "[--json out.json]\n"
            "          [--measure-instrs N] [--warmup-instrs N] "
            "[--max-cycles N]\n"
            "          [--shard i/N] [--ckpt-dir DIR] [--profile]\n",
            name_.c_str());
        std::exit(code);
    }

    /** Digit-only decimal parse: false on garbage, trailing junk,
     *  signs, or overflow. The strict backend of every numeric flag. */
    static bool
    parseDigits(const char *text, std::uint64_t &out)
    {
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(text, &end, 10);
        if (text[0] < '0' || text[0] > '9' || end == text ||
            *end != '\0' || errno == ERANGE)
            return false;
        out = v;
        return true;
    }

    /**
     * Strict decimal parse for flag values. Anything that is not a
     * plain digit string (garbage, trailing junk, negatives, or —
     * when @p allowZero is false — zero) is a hard error: the old
     * strtoul fallback silently turned "--threads abc" into thread
     * count 0, i.e. hardware concurrency, hiding the typo.
     */
    std::uint64_t
    parseNumber(const char *text, const char *flag, bool allowZero)
    {
        std::uint64_t v = 0;
        if (!parseDigits(text, v) || (!allowZero && v == 0)) {
            std::fprintf(
                stderr, "%s: %s wants a positive integer, got '%s'\n",
                name_.c_str(), flag, text);
            std::exit(2);
        }
        return v;
    }

    void
    parseArgs(int argc, char **argv)
    {
        auto value = [&](int &i, const char *flag) -> const char * {
            const char *arg = argv[i];
            const std::size_t n = std::strlen(flag);
            if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
                return arg + n + 1;
            if (++i >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             name_.c_str(), flag);
                usage(2);
            }
            return argv[i];
        };
        auto matches = [](const char *arg, const char *flag) {
            const std::size_t n = std::strlen(flag);
            return std::strncmp(arg, flag, n) == 0 &&
                   (arg[n] == '\0' || arg[n] == '=');
        };

        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (matches(arg, "--threads")) {
                // 0 is rejected rather than meaning "hardware
                // concurrency": omitting the flag already does that,
                // and an explicit 0 is more often a garbled value.
                threadsFlag_ = static_cast<unsigned>(parseNumber(
                    value(i, "--threads"), "--threads", false));
            } else if (matches(arg, "--workloads")) {
                splitCsv(value(i, "--workloads"), workloadFilter_);
            } else if (matches(arg, "--json")) {
                jsonPath_ = value(i, "--json");
            } else if (matches(arg, "--measure-instrs")) {
                measureInstrs_ =
                    parseNumber(value(i, "--measure-instrs"),
                                "--measure-instrs", true);
            } else if (matches(arg, "--warmup-instrs")) {
                warmupInstrs_ =
                    parseNumber(value(i, "--warmup-instrs"),
                                "--warmup-instrs", true);
            } else if (matches(arg, "--max-cycles")) {
                maxCycles_ = parseNumber(value(i, "--max-cycles"),
                                         "--max-cycles", true);
            } else if (matches(arg, "--shard")) {
                parseShard(value(i, "--shard"));
            } else if (matches(arg, "--ckpt-dir")) {
                ckptDir_ = value(i, "--ckpt-dir");
            } else if (std::strcmp(arg, "--profile") == 0) {
                profile_ = true;
            } else if (std::strcmp(arg, "--help") == 0 ||
                       std::strcmp(arg, "-h") == 0) {
                usage(0);
            } else {
                std::fprintf(stderr, "%s: unknown flag '%s'\n",
                             name_.c_str(), arg);
                usage(2);
            }
        }
    }

    /**
     * Strict "--shard i/N" parse, same contract as parseNumber: both
     * halves must be plain digit strings (no signs — the old strtoul
     * path silently wrapped "-1" to a huge index) with N > 0 and
     * i < N; anything else is a one-line error and exit 2.
     */
    void
    parseShard(const char *text)
    {
        std::uint64_t idx = 0;
        std::uint64_t count = 0;
        const char *slash = std::strchr(text, '/');
        bool ok = slash != nullptr;
        if (ok) {
            const std::string idxPart(text, slash);
            ok = parseDigits(idxPart.c_str(), idx) &&
                 parseDigits(slash + 1, count) && count > 0 &&
                 idx < count && count <= 0xFFFFFFFFull;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "%s: --shard wants i/N with digits only and "
                         "0 <= i < N, got '%s'\n",
                         name_.c_str(), text);
            std::exit(2);
        }
        shardIndex_ = static_cast<unsigned>(idx);
        shardCount_ = static_cast<unsigned>(count);
        shardGiven_ = true;
    }

    static void
    splitCsv(const std::string &csv, std::vector<std::string> &out)
    {
        std::size_t start = 0;
        while (start <= csv.size()) {
            std::size_t comma = csv.find(',', start);
            if (comma == std::string::npos)
                comma = csv.size();
            if (comma > start)
                out.push_back(csv.substr(start, comma - start));
            start = comma + 1;
        }
    }

    std::string name_;
    unsigned threadsFlag_ = 0;
    std::vector<std::string> workloadFilter_;
    std::string jsonPath_;
    std::string ckptDir_;
    std::uint64_t measureInstrs_ = kUnset;
    std::uint64_t warmupInstrs_ = kUnset;
    std::uint64_t maxCycles_ = kUnset;
    bool profile_ = false;
    unsigned shardIndex_ = 0;
    unsigned shardCount_ = 1;
    bool shardGiven_ = false;

    sim::SweepRunner runner_{1};
    std::vector<sim::SweepCell> cells_;
    std::vector<sim::SweepOutcome> outcomes_;
    double wallSeconds_ = 0.0;
    Json derived_;
};

} // namespace cdfsim::bench

#endif // CDFSIM_BENCH_BENCH_UTIL_HH
