#include "sim/snapshot.hh"

#include <cstdio>
#include <fstream>
#include <iterator>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "common/hash.hh"

namespace cdfsim::sim
{

namespace
{

/** 8-byte container magic ("CDFSNAP" + format generation). */
constexpr char kMagic[8] = {'C', 'D', 'F', 'S', 'N', 'A', 'P', '1'};

void
save(SnapWriter &w, const cdf::CriticalTableConfig &c)
{
    w.u32(c.entries);
    w.u32(c.ways);
    w.u32(c.strictBits);
    w.u32(c.strictThreshold);
    w.u32(c.permissiveBits);
    w.u32(c.permissiveThreshold);
    w.u32(c.missInc);
    w.u32(c.hitDec);
}

void
save(SnapWriter &w, const cdf::FillBufferConfig &c)
{
    w.u32(c.capacity);
    w.u64(c.refillIntervalInstrs);
    w.f64(c.minDensity);
    w.f64(c.maxDensity);
    w.b(c.useMaskCache);
}

void
save(SnapWriter &w, const cdf::MaskCacheConfig &c)
{
    w.u32(c.entries);
    w.u32(c.ways);
    w.u64(c.resetIntervalInstrs);
}

void
save(SnapWriter &w, const cdf::UopCacheConfig &c)
{
    w.u32(c.capacityLines);
    w.u32(c.fillLatency);
}

void
save(SnapWriter &w, const cdf::PartitionConfig &c)
{
    w.b(c.dynamic);
    w.u32(c.stallThreshold);
    w.u32(c.robStep);
    w.u32(c.lsqStep);
    w.u32(c.minSection);
    w.u32(c.minLsqSection);
    w.f64(c.initialCriticalFrac);
}

void
save(SnapWriter &w, const mem::CacheConfig &c)
{
    w.str(c.name);
    w.u64(c.sizeBytes);
    w.u32(c.ways);
    w.u32(c.latency);
    w.u32(c.mshrs);
}

void
save(SnapWriter &w, const mem::DramConfig &c)
{
    w.u32(c.channels);
    w.u32(c.bankGroups);
    w.u32(c.banksPerGroup);
    w.u32(c.rowBytes);
    w.u32(c.tRp);
    w.u32(c.tCl);
    w.u32(c.tRcd);
    w.u32(c.tBurst);
    w.u32(c.controllerLatency);
}

void
save(SnapWriter &w, const mem::PrefetcherConfig &c)
{
    w.u32(c.streams);
    w.u32(c.trainDistance);
    w.u32(c.minDegree);
    w.u32(c.maxDegree);
    w.u32(c.initialDegree);
    w.u32(c.evalIntervalFills);
    w.f64(c.lowAccuracy);
    w.f64(c.highAccuracy);
}

void
save(SnapWriter &w, const mem::HierarchyConfig &c)
{
    save(w, c.l1i);
    save(w, c.l1d);
    save(w, c.llc);
    save(w, c.dram);
    save(w, c.prefetcher);
    w.b(c.prefetcherEnabled);
}

void
save(SnapWriter &w, const bp::TageConfig &c)
{
    w.u32(c.numTables);
    w.u32(c.tableBitsLog2);
    w.u32(c.tagBits);
    w.u32(c.counterBits);
    w.u32(c.usefulBits);
    w.u32(c.minHistory);
    w.u32(c.maxHistory);
    w.u32(c.bimodalBitsLog2);
    w.u32(c.loopEntries);
    w.u32(c.loopConfidenceMax);
    w.u32(c.scEntriesLog2);
    w.u32(c.scThreshold);
}

void
save(SnapWriter &w, const bp::PredictorConfig &c)
{
    save(w, c.tage);
    w.u64(c.btbEntries);
    w.u64(c.rasDepth);
}

void
save(SnapWriter &w, const ooo::CdfKnobs &c)
{
    w.b(c.markCriticalBranches);
    save(w, c.loadTable);
    save(w, c.branchTable);
    save(w, c.fillBuffer);
    save(w, c.maskCache);
    save(w, c.uopCache);
    save(w, c.partition);
    w.u32(c.dbqEntries);
    w.u32(c.cmqEntries);
    w.f64(c.densitySwitchLow);
    w.f64(c.densitySwitchHigh);
    w.u32(c.reentryCooldown);
}

void
save(SnapWriter &w, const ooo::PreKnobs &c)
{
    save(w, c.stallTable);
    save(w, c.fillBuffer);
    save(w, c.maskCache);
    save(w, c.uopCache);
    w.u32(c.minStallCyclesToEnter);
    w.u32(c.bbScanLimit);
    w.u32(c.maxChainLoadsPerEpisode);
}

/**
 * Every CoreConfig field that can influence warmup state, in
 * declaration order. skipIdleCycles and profileStages are host-only
 * knobs whose setting is proven not to change any architectural
 * state (test_skip / test_stat_gate), so they are excluded: a
 * profiled run reuses an unprofiled run's checkpoint.
 */
void
saveWarmupRelevant(SnapWriter &w, const ooo::CoreConfig &c)
{
    w.u8(static_cast<std::uint8_t>(c.mode));
    w.u32(c.width);
    w.u32(c.issueWidth);
    w.u32(c.robSize);
    w.u32(c.rsSize);
    w.u32(c.lqSize);
    w.u32(c.sqSize);
    w.u32(c.physRegs);
    w.u32(c.frontendDepth);
    w.u32(c.fetchQueueSize);
    w.u32(c.mispredictRedirect);
    w.u32(c.btbMissPenalty);
    w.u32(c.maxLoadsPerCycle);
    w.u32(c.maxStoresPerCycle);
    w.b(c.observeCriticality);
    save(w, c.cdf);
    save(w, c.pre);
    save(w, c.mem);
    save(w, c.bp);
    w.u64(c.deadlockCycles);
}

} // namespace

std::uint64_t
warmupKey(const std::string &workload, const ooo::CoreConfig &config,
          const RunSpec &spec)
{
    SnapWriter w;
    w.str(workload);
    saveWarmupRelevant(w, config);
    w.u64(spec.warmupInstrs);
    w.u64(spec.maxCycles);
    return w.fnv1a();
}

std::string
checkpointFileName(std::uint64_t key)
{
    char name[64];
    std::snprintf(name, sizeof(name), "ckpt_%016llx.cdfsnap",
                  static_cast<unsigned long long>(key));
    return name;
}

bool
saveCheckpointFile(const std::string &path, std::uint64_t key,
                   const Checkpoint &ckpt)
{
    SnapWriter header;
    for (char c : kMagic)
        header.u8(static_cast<std::uint8_t>(c));
    header.u32(kCheckpointSchemaVersion);
    header.u64(key);
    header.b(ckpt.warmupTruncated);
    header.u64(ckpt.payload.size());
    header.u64(fnv1a64(ckpt.payload));

    // Temp file + rename: concurrent benches pointed at the same
    // --ckpt-dir either see the complete file or none at all. The
    // temp name carries the pid so two concurrent writers never
    // interleave into one temp file; the final rename is
    // last-writer-wins over byte-identical content (the on-disk
    // determinism test checks the *renamed* file, which embeds no
    // pid or timestamp).
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(getpid()));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "warning: cannot write checkpoint %s\n",
                         tmp.c_str());
            return false;
        }
        out.write(
            reinterpret_cast<const char *>(header.bytes().data()),
            static_cast<std::streamsize>(header.size()));
        out.write(
            reinterpret_cast<const char *>(ckpt.payload.data()),
            static_cast<std::streamsize>(ckpt.payload.size()));
        if (!out) {
            std::fprintf(stderr,
                         "warning: short write on checkpoint %s\n",
                         tmp.c_str());
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr,
                     "warning: cannot rename checkpoint %s -> %s\n",
                     tmp.c_str(), path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::optional<Checkpoint>
loadCheckpointFile(const std::string &path, std::uint64_t key)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::vector<std::uint8_t> file(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    // Header: magic(8) schema(4) key(8) truncated(1) size(8) fnv(8).
    constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 1 + 8 + 8;
    if (file.size() < kHeaderBytes)
        return std::nullopt;
    SnapReader r(file.data(), kHeaderBytes);
    for (char c : kMagic) {
        if (r.u8() != static_cast<std::uint8_t>(c))
            return std::nullopt;
    }
    if (r.u32() != kCheckpointSchemaVersion)
        return std::nullopt;
    if (r.u64() != key)
        return std::nullopt;
    Checkpoint ckpt;
    ckpt.warmupTruncated = r.b();
    const std::uint64_t payloadSize = r.u64();
    const std::uint64_t payloadFnv = r.u64();
    if (file.size() - kHeaderBytes != payloadSize)
        return std::nullopt;

    ckpt.payload.assign(file.begin() + kHeaderBytes, file.end());
    if (fnv1a64(ckpt.payload) != payloadFnv)
        return std::nullopt;
    return ckpt;
}

} // namespace cdfsim::sim
