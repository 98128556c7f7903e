/**
 * @file
 * Warmup checkpointing: keys, in-memory checkpoints, and the on-disk
 * container format.
 *
 * A warmup checkpoint captures the complete post-warmup simulator
 * state (Simulator::saveState) so that sweep cells sharing the same
 * (workload, mode, warmup-relevant config, warmup length) can warm
 * once and restore many times — in-process via SweepRunner's
 * memoization, and across processes via bench::Harness --ckpt-dir.
 *
 * Restoring a checkpoint and measuring is bit-identical to warming
 * up and measuring in one sitting (enforced by tests/test_snapshot
 * and the ckpt_roundtrip ctest chain), so checkpoints are a pure
 * wall-clock optimization: every stat, result and JSON artifact is
 * unchanged.
 */

#ifndef CDFSIM_SIM_SNAPSHOT_HH
#define CDFSIM_SIM_SNAPSHOT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "ooo/core_config.hh"
#include "sim/simulator.hh"

namespace cdfsim::sim
{

/** Bumped whenever the payload layout (any fields() visitor)
 *  changes; SnapshotLayout.PayloadBytesArePinned fails until it is.
 *  Stale on-disk checkpoints are rejected, never migrated. */
inline constexpr std::uint32_t kCheckpointSchemaVersion = 7;

/** A complete post-warmup simulator state. */
struct Checkpoint
{
    std::vector<std::uint8_t> payload; //!< Simulator::saveState bytes
    bool warmupTruncated = false;      //!< warmup hit its cycle budget
};

/**
 * FNV-1a key identifying a warmup: two cells share a checkpoint iff
 * their keys match. Hashes the serializer bytes of the workload
 * name, the CoreConfig as its fields() visitor lists it (every
 * field but the host-only skipIdleCycles and profileStages, so a
 * field added to the visitor is in the key and one left out is
 * caught by the SIM_SNAPSHOT_FIELDS lint), spec.warmupInstrs and
 * spec.maxCycles. measureInstrs is deliberately excluded — it only
 * affects the post-restore phase.
 */
std::uint64_t warmupKey(const std::string &workload,
                        const ooo::CoreConfig &config,
                        const RunSpec &spec);

/** "ckpt_<16-hex-digit-key>.cdfsnap" — the file name used under
 *  --ckpt-dir. Deterministic: no timestamps, pids or hostnames. */
std::string checkpointFileName(std::uint64_t key);

/**
 * Atomically write @p ckpt to @p path (temp file + rename, so a
 * concurrent reader never sees a torn file). The container embeds a
 * magic, the schema version, an echo of @p key and an FNV-1a payload
 * checksum. Returns false (with a warning on stderr) on I/O errors;
 * checkpointing is an optimization, so failures never abort a sweep.
 */
bool saveCheckpointFile(const std::string &path, std::uint64_t key,
                        const Checkpoint &ckpt);

/**
 * Load and validate a checkpoint. Returns nullopt when the file is
 * missing, torn, from another schema version, or keyed differently
 * (a stale artifact after a config change) — callers then just warm
 * up from scratch.
 */
std::optional<Checkpoint> loadCheckpointFile(const std::string &path,
                                             std::uint64_t key);

} // namespace cdfsim::sim

#endif // CDFSIM_SIM_SNAPSHOT_HH
