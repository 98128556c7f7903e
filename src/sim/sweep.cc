#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "sim/snapshot.hh"

namespace cdfsim::sim
{

SweepRunner::SweepRunner(unsigned threads) : threads_(threads)
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
        if (threads_ == 0)
            threads_ = 1;
    }
}

namespace
{

/** The immutable per-workload-name state every cell shares: the
 *  program and the pristine post-init memory image. */
struct SharedWorkload
{
    /** The first cell to need the workload builds it; the others
     *  wait for that one build. */
    std::once_flag built;
    std::shared_ptr<const workloads::Workload> workload;
    std::shared_ptr<const isa::MemoryImage> pristine;
    /** Construction failure (e.g. unknown name); every cell naming
     *  this workload reports it as its own cell error. */
    std::string error;
    /** Cells naming this workload that have not finished; the last
     *  one to finish drops the runner's reference. */
    std::atomic<std::size_t> cellsLeft{0};
};

/** One warmup-key equivalence class of cells. */
struct WarmupGroup
{
    std::mutex mutex;
    std::condition_variable cv;
    /** 0 = unclaimed, 1 = a leader is warming, 2 = checkpoint ready
     *  (ckpt is immutable from then on), 3 = the leader failed and
     *  followers must warm themselves. */
    int state = 0;
    std::size_t members = 0;
    /** Members that have not let go of ckpt: a follower lets go
     *  after its restore, the leader after the file write, a cell
     *  that dies as soon as it is caught. The last frees ckpt. */
    std::size_t holders = 0;
    Checkpoint ckpt;

    /** One member lets go; true when that freed a payload. */
    bool
    letGo()
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (--holders != 0 || ckpt.payload.empty())
            return false;
        ckpt = Checkpoint{};
        return true;
    }
};

} // namespace

std::vector<SweepOutcome>
SweepRunner::runAll(const std::vector<SweepCell> &cells,
                    const SweepProgressFn &progress)
{
    std::vector<SweepOutcome> outcomes(cells.size());
    ckptStats_ = CkptStats{};

    // Workloads are built on the pool, by the first cell that needs
    // each one, and dropped after its last cell: the program and
    // pristine memory image are immutable in between and shared by
    // every cell (cells copy the image copy-on-write, paying only
    // for pages they dirty).
    std::unordered_map<std::string, SharedWorkload> shared;
    for (const SweepCell &cell : cells)
        ++shared[cell.workload].cellsLeft;

    // Group cells by warmup key. Cells with no warmup phase are not
    // memoized (there is nothing to share).
    std::vector<std::uint64_t> keys(cells.size(), 0);
    std::vector<WarmupGroup *> groupOf(cells.size(), nullptr);
    std::unordered_map<std::uint64_t, std::unique_ptr<WarmupGroup>>
        groups;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].spec.warmupInstrs == 0)
            continue;
        ooo::CoreConfig keyConfig = cells[i].config;
        keyConfig.mode = cells[i].mode;
        keys[i] =
            warmupKey(cells[i].workload, keyConfig, cells[i].spec);
        auto &group = groups[keys[i]];
        if (!group)
            group = std::make_unique<WarmupGroup>();
        ++group->members;
        ++group->holders;
        groupOf[i] = group.get();
    }

    std::mutex ckptStatsMutex;
    auto countHit = [&](double restoreSeconds) {
        std::lock_guard<std::mutex> lock(ckptStatsMutex);
        ++ckptStats_.hits;
        ckptStats_.restoreSeconds += restoreSeconds;
    };
    auto countMiss = [&]() {
        std::lock_guard<std::mutex> lock(ckptStatsMutex);
        ++ckptStats_.misses;
    };
    /** One more (@p take) or one fewer image or payload held. */
    auto countHeld = [&](CkptStats::Held &held, bool take) {
        std::lock_guard<std::mutex> lock(ckptStatsMutex);
        if (take)
            held.peak = std::max(held.peak, ++held.now);
        else
            --held.now;
    };

    /** The cell's group lets go of its checkpoint (once). */
    auto letGo = [&](WarmupGroup *&claim) {
        if (claim && claim->letGo())
            countHeld(ckptStats_.payloads, false);
        claim = nullptr;
    };

    /** Restore @p simulator from the group's ready checkpoint. */
    auto restoreFrom = [&](Simulator &simulator,
                           WarmupGroup *&claim) -> bool {
        const auto t0 = std::chrono::steady_clock::now();
        SnapReader reader(claim->ckpt.payload);
        simulator.restoreState(reader);
        countHit(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
        const bool truncated = claim->ckpt.warmupTruncated;
        letGo(claim);
        return truncated;
    };

    /** Warm @p simulator through its group @p claim: lead, follow,
     *  or (after a leader failure) self-warm. Returns
     *  warmupTruncated. */
    auto warmShared = [&](Simulator &simulator, WarmupGroup *&claim,
                          std::uint64_t key,
                          const RunSpec &spec) -> bool {
        WarmupGroup &group = *claim;
        std::unique_lock<std::mutex> lock(group.mutex);
        if (group.state == 0) {
            if (!ckptDir_.empty()) {
                // Another process may have warmed this key already.
                auto loaded = loadCheckpointFile(
                    ckptDir_ + "/" + checkpointFileName(key), key);
                if (loaded) {
                    group.ckpt = std::move(*loaded);
                    group.state = 2;
                    lock.unlock();
                    countHeld(ckptStats_.payloads, true);
                    return restoreFrom(simulator, claim);
                }
            }
            group.state = 1; // this cell leads
            lock.unlock();
            try {
                const bool truncated = simulator.warmup(spec);
                Checkpoint fresh;
                fresh.warmupTruncated = truncated;
                // Snapshotting costs host time; skip it when nobody
                // could ever consume it (singleton group, no disk
                // cache).
                if (group.members > 1 || !ckptDir_.empty()) {
                    SnapWriter writer;
                    simulator.saveState(writer);
                    fresh.payload = writer.take();
                    countHeld(ckptStats_.payloads, true);
                }
                lock.lock();
                group.ckpt = std::move(fresh);
                group.state = 2;
                group.cv.notify_all();
                lock.unlock();
            } catch (...) {
                lock.lock();
                group.state = 3;
                group.cv.notify_all();
                lock.unlock();
                throw;
            }
            countMiss();
            if (!ckptDir_.empty() && !group.ckpt.payload.empty()) {
                saveCheckpointFile(ckptDir_ + "/" +
                                       checkpointFileName(key),
                                   key, group.ckpt);
            }
            const bool truncated = group.ckpt.warmupTruncated;
            letGo(claim);
            return truncated;
        }
        group.cv.wait(lock,
                      [&group] { return group.state >= 2; });
        if (group.state == 2) {
            lock.unlock();
            return restoreFrom(simulator, claim);
        }
        // The leader died; its error is captured in its own outcome.
        // Warm independently so this cell still gets a fair run.
        lock.unlock();
        letGo(claim);
        countMiss();
        return simulator.warmup(spec);
    };

    /** Build @p s if no cell has yet; every caller sees the one
     *  result. */
    auto build = [&](SharedWorkload &s, const std::string &name) {
        std::call_once(s.built, [&] {
            try {
                auto workload =
                    std::make_shared<const workloads::Workload>(
                        workloads::makeWorkload(name));
                auto image = std::make_shared<isa::MemoryImage>();
                if (workload->init)
                    workload->init(*image);
                s.workload = std::move(workload);
                s.pristine = std::move(image);
                countHeld(ckptStats_.images, true);
            } catch (const std::exception &e) {
                s.error = e.what();
            }
            std::lock_guard<std::mutex> lock(ckptStatsMutex);
            ++ckptStats_.builds;
        });
    };

    std::atomic<std::size_t> nextCell{0};
    std::atomic<std::size_t> doneCells{0};
    std::mutex progressMutex;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                nextCell.fetch_add(1, std::memory_order_relaxed);
            if (i >= cells.size())
                return;

            SweepOutcome &out = outcomes[i];
            out.cell = cells[i];
            out.cell.config.mode = out.cell.mode;
            SharedWorkload &s = shared.at(out.cell.workload);
            WarmupGroup *claim = groupOf[i];
            try {
                build(s, out.cell.workload);
                if (!s.workload)
                    throw PanicError(s.error);
                Simulator simulator(out.cell.config, s.workload,
                                    s.pristine);
                bool warmupTruncated;
                if (claim) {
                    warmupTruncated = warmShared(simulator, claim,
                                                 keys[i], out.cell.spec);
                } else {
                    warmupTruncated = simulator.warmup(out.cell.spec);
                }
                out.run = simulator.measure(out.cell.spec,
                                            warmupTruncated);
            } catch (const std::exception &e) {
                out.error = e.what();
            }
            letGo(claim);
            if (s.cellsLeft.fetch_sub(1) == 1 && s.pristine) {
                s.workload.reset();
                s.pristine.reset();
                countHeld(ckptStats_.images, false);
            }
            out.run.workload = out.cell.workload;
            out.run.mode = out.cell.mode;

            const std::size_t done =
                doneCells.fetch_add(1, std::memory_order_relaxed) + 1;
            if (progress) {
                std::lock_guard<std::mutex> lock(progressMutex);
                progress(out, done, cells.size());
            }
        }
    };

    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(threads_, cells.size()));
    if (n <= 1) {
        worker();
        return outcomes;
    }

    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return outcomes;
}

const char *
toString(ooo::CoreMode mode)
{
    switch (mode) {
      case ooo::CoreMode::Baseline: return "baseline";
      case ooo::CoreMode::Cdf: return "cdf";
      case ooo::CoreMode::Pre: return "pre";
    }
    return "unknown";
}

Json
toJson(const RunSpec &spec)
{
    Json j = Json::object();
    j["warmup_instrs"] = spec.warmupInstrs;
    j["measure_instrs"] = spec.measureInstrs;
    j["max_cycles"] = spec.maxCycles;
    return j;
}

Json
toJson(const ooo::CoreResult &core)
{
    Json j = Json::object();
    j["retired_instrs"] = core.retiredInstrs;
    j["cycles"] = core.cycles;
    j["ipc"] = core.ipc;
    j["mlp"] = core.mlp;
    j["useless_mlp"] = core.uselessMlp;
    j["dram_bytes"] = core.dramBytes;
    j["branch_mpki"] = core.branchMpki;
    j["llc_mpki"] = core.llcMpki;
    j["cdf_mode_fraction"] = core.cdfModeFraction;
    j["full_window_stall_fraction"] = core.fullWindowStallFraction;
    j["rob_critical_fraction"] = core.robCriticalFraction;
    return j;
}

Json
toJson(const energy::EnergyReport &energy)
{
    Json j = Json::object();
    j["core_area_mm2"] = energy.coreAreaMm2;
    j["extra_area_mm2"] = energy.extraAreaMm2;
    j["dynamic_uj"] = energy.dynamicUj;
    j["static_uj"] = energy.staticUj;
    j["dram_uj"] = energy.dramUj;
    j["total_uj"] = energy.totalUj;
    Json comps = Json::object();
    for (const auto &c : energy.components)
        comps[c.name] = c.dynamicUj;
    j["components_uj"] = std::move(comps);
    return j;
}

Json
toJson(const RunResult &run)
{
    Json j = Json::object();
    j["workload"] = run.workload;
    j["mode"] = toString(run.mode);
    j["status"] = run.status();
    j["halted"] = run.halted;
    j["warmup_truncated"] = run.warmupTruncated;
    j["truncated"] = run.truncated;
    j["core"] = toJson(run.core);
    j["energy"] = toJson(run.energy);
    j["stats"] = run.stats.toJson();
    return j;
}

Json
toJson(const SweepOutcome &outcome)
{
    Json j = Json::object();
    j["workload"] = outcome.cell.workload;
    j["variant"] = outcome.cell.variant;
    j["mode"] = toString(outcome.cell.mode);
    j["spec"] = toJson(outcome.cell.spec);
    if (!outcome.error.empty()) {
        j["status"] = "error";
        j["error"] = outcome.error;
        return j;
    }
    Json run = toJson(outcome.run);
    // workload/mode already identify the row at this level.
    j["status"] = outcome.run.status();
    j["halted"] = outcome.run.halted;
    j["warmup_truncated"] = outcome.run.warmupTruncated;
    j["truncated"] = outcome.run.truncated;
    j["core"] = std::move(run["core"]);
    j["energy"] = std::move(run["energy"]);
    j["stats"] = std::move(run["stats"]);
    return j;
}

} // namespace cdfsim::sim
