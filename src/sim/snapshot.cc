#include "sim/snapshot.hh"

#include <cstdio>
#include <fstream>

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

} // namespace

std::uint64_t
warmupKey(const std::string &workload, const ooo::CoreConfig &config,
          const RunSpec &spec)
{
    SnapWriter w;
    w.str(workload);
    w(config);
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

    // Header: magic(8) schema(4) key(8) truncated(1) size(8) fnv(8).
    constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 1 + 8 + 8;
    std::uint8_t header[kHeaderBytes];
    if (!in.read(reinterpret_cast<char *>(header), kHeaderBytes))
        return std::nullopt;
    SnapReader r(header, kHeaderBytes);
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

    // The payload must fill the rest of the file exactly: size it
    // from the file before trusting the header's count.
    const std::streamoff start = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streamoff end = in.tellg();
    if (start < 0 || end < start ||
        static_cast<std::uint64_t>(end - start) != payloadSize)
        return std::nullopt;
    in.seekg(start);
    ckpt.payload.resize(payloadSize);
    if (!in.read(reinterpret_cast<char *>(ckpt.payload.data()),
                 static_cast<std::streamsize>(payloadSize)))
        return std::nullopt;
    if (fnv1a64(ckpt.payload) != payloadFnv)
        return std::nullopt;
    return ckpt;
}

} // namespace cdfsim::sim
