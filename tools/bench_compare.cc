/**
 * @file
 * Offline diff for two bench JSON artifacts (BENCH_*.json).
 *
 * Pairs runs by (workload, variant), compares the headline metrics —
 * IPC, MLP, and total energy — and flags any relative movement
 * beyond a tolerance. Movements in the bad direction (IPC/MLP down,
 * energy up) are regressions and make the exit code nonzero, so a CI
 * step can gate a change on "the figures did not get worse":
 *
 *   bench_compare [--tolerance PCT] baseline.json candidate.json
 *
 * Improvements beyond tolerance are printed too (they mean the
 * baseline artifact is stale) but do not fail the comparison.
 *
 * A tolerance of exactly 0 is an identity check instead: every value
 * under each run's "core", "energy" and "stats" objects must match
 * in both artifacts, and any movement — better, worse, or a value on
 * one side only — fails and is printed with its path.
 *
 * Missing rows, status changes (ok -> truncated/halted), and
 * sweep-cell errors always count as regressions.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"

using cdfsim::Json;

namespace
{

struct Metric
{
    const char *section; //!< "core" or "energy"
    const char *key;
    bool higherIsBetter;
};

constexpr Metric kMetrics[] = {
    {"core", "ipc", true},
    {"core", "mlp", true},
    {"energy", "total_uj", false},
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(stderr,
                 "usage: bench_compare [--tolerance PCT] "
                 "baseline.json candidate.json\n"
                 "  --tolerance PCT  flag relative movements beyond "
                 "PCT%% (default 1.0); 0 flags any change to any "
                 "core/energy/stats value\n");
    std::exit(code);
}

/** A finite, non-negative percentage, or exit 2 naming @p text. */
double
parseTolerance(const char *text)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value) ||
        value < 0.0) {
        std::fprintf(stderr,
                     "bench_compare: --tolerance wants a finite "
                     "non-negative number, got '%s'\n",
                     text);
        std::exit(2);
    }
    return value;
}

Json
load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_compare: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    Json doc = Json::parse(buf.str(), &error);
    if (doc.isNull()) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                     error.c_str());
        std::exit(2);
    }
    return doc;
}

/** (workload, variant) -> run object, in artifact order. */
std::map<std::pair<std::string, std::string>, const Json *>
indexRuns(const Json &doc, const std::string &path)
{
    const Json *runs = doc.find("runs");
    if (!runs || runs->type() != Json::Type::Array) {
        std::fprintf(stderr,
                     "bench_compare: %s has no \"runs\" array\n",
                     path.c_str());
        std::exit(2);
    }
    std::map<std::pair<std::string, std::string>, const Json *> out;
    for (const Json &run : runs->items()) {
        const Json *workload = run.find("workload");
        const Json *variant = run.find("variant");
        if (!workload || !variant)
            continue;
        out[{workload->asString(), variant->asString()}] = &run;
    }
    return out;
}

/**
 * A null under "derived" is a serialized NaN: an aggregate that the
 * bench computed over an empty row set.  Such an artifact cannot be
 * meaningfully gated on, so treat it as malformed rather than letting
 * the comparison silently skip the aggregate.
 */
void
rejectNullDerived(const Json &node, const std::string &path,
                  const std::string &keyPath)
{
    if (node.isNull())
        throw std::runtime_error(
            path + ": " + keyPath +
            " is null (aggregate computed over zero rows)");
    if (node.type() == Json::Type::Object) {
        for (const auto &[key, value] : node.members())
            rejectNullDerived(value, path, keyPath + "." + key);
    } else if (node.type() == Json::Type::Array) {
        std::size_t i = 0;
        for (const Json &item : node.items())
            rejectNullDerived(item, path,
                              keyPath + "[" + std::to_string(i++) +
                                  "]");
    }
}

void
validateDerived(const Json &doc, const std::string &path)
{
    if (const Json *derived = doc.find("derived"))
        rejectNullDerived(*derived, path, "derived");
}

const Json *
metricNode(const Json &run, const Metric &m)
{
    const Json *section = run.find(m.section);
    return section ? section->find(m.key) : nullptr;
}

/** Each value under a run's core/energy/stats objects, keyed by
 *  "section.key", as compact JSON (exact for every number type). */
std::map<std::string, std::string>
identityValues(const Json &run)
{
    std::map<std::string, std::string> out;
    for (const char *section : {"core", "energy", "stats"}) {
        if (const Json *node = run.find(section))
            for (const auto &[key, value] : node->members())
                out[std::string(section) + "." + key] = value.dump(-1);
    }
    return out;
}

std::string
runStatus(const Json &run)
{
    const Json *status = run.find("status");
    return status ? status->asString() : "missing";
}

int
run(int argc, char **argv)
{
    double tolerancePct = 1.0;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--tolerance") == 0) {
            if (++i >= argc)
                usage(2);
            tolerancePct = parseTolerance(argv[i]);
        } else if (std::strncmp(arg, "--tolerance=", 12) == 0) {
            tolerancePct = parseTolerance(arg + 12);
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage(0);
        } else if (arg[0] == '-') {
            std::fprintf(stderr,
                         "bench_compare: unknown flag '%s'\n", arg);
            usage(2);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2)
        usage(2);

    const Json base = load(paths[0]);
    const Json cand = load(paths[1]);
    validateDerived(base, paths[0]);
    validateDerived(cand, paths[1]);
    const auto baseRuns = indexRuns(base, paths[0]);
    const auto candRuns = indexRuns(cand, paths[1]);

    unsigned regressions = 0;
    unsigned improvements = 0;
    unsigned compared = 0;

    for (const auto &[id, baseRun] : baseRuns) {
        const std::string label = id.first + "/" + id.second;
        const auto it = candRuns.find(id);
        if (it == candRuns.end()) {
            std::printf("REGRESSION  %-28s missing from %s\n",
                        label.c_str(), paths[1].c_str());
            ++regressions;
            continue;
        }
        const Json &candRun = *it->second;

        const std::string baseStatus = runStatus(*baseRun);
        const std::string candStatus = runStatus(candRun);
        if (baseStatus != candStatus) {
            std::printf("REGRESSION  %-28s status %s -> %s\n",
                        label.c_str(), baseStatus.c_str(),
                        candStatus.c_str());
            ++regressions;
            continue;
        }
        if (baseStatus == "error")
            continue; // neither side has metrics

        if (tolerancePct == 0.0) {
            // Identity: a value that moved either way, or that only
            // one side has, fails. Compact JSON never renders a value
            // as "(absent)".
            auto baseValues = identityValues(*baseRun);
            auto candValues = identityValues(candRun);
            for (const auto &entry : candValues)
                baseValues.try_emplace(entry.first, "(absent)");
            for (const auto &[key, bv] : baseValues) {
                const std::string &cv =
                    candValues.try_emplace(key, "(absent)").first->second;
                ++compared;
                if (bv == cv)
                    continue;
                std::printf("REGRESSION  %-28s %s %s -> %s\n",
                            label.c_str(), key.c_str(), bv.c_str(),
                            cv.c_str());
                ++regressions;
            }
            continue;
        }

        for (const Metric &m : kMetrics) {
            const Json *b = metricNode(*baseRun, m);
            const Json *c = metricNode(candRun, m);
            if (!b || !c)
                continue;
            const double bv = b->asNumber();
            const double cv = c->asNumber();
            ++compared;
            // Relative movement; a zero baseline only matches a
            // zero candidate.
            const double deltaPct =
                bv != 0.0 ? 100.0 * (cv - bv) / std::fabs(bv)
                          : (cv == 0.0 ? 0.0 : 1e9);
            if (std::fabs(deltaPct) <= tolerancePct)
                continue;
            const bool worse = m.higherIsBetter ? cv < bv : cv > bv;
            std::printf("%-11s %-28s %s.%s %12.6g -> %-12.6g "
                        "(%+.2f%%)\n",
                        worse ? "REGRESSION" : "IMPROVEMENT",
                        label.c_str(), m.section, m.key, bv, cv,
                        deltaPct);
            if (worse)
                ++regressions;
            else
                ++improvements;
        }
    }

    // A row on only one side is a coverage failure either way: a
    // run that silently appeared is as suspect as one that silently
    // vanished (a renamed variant would otherwise pass the gate).
    for (const auto &[id, run] : candRuns) {
        (void)run;
        if (baseRuns.find(id) == baseRuns.end()) {
            std::printf("REGRESSION  %s/%s only in %s\n",
                        id.first.c_str(), id.second.c_str(),
                        paths[1].c_str());
            ++regressions;
        }
    }

    std::printf("%u metric(s) compared across %zu run(s): "
                "%u regression(s), %u improvement(s) beyond %.2f%%\n",
                compared, baseRuns.size(), regressions, improvements,
                tolerancePct);
    return regressions > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Schema violations inside a parseable artifact (a string where a
    // number belongs, say) surface as exceptions from the Json
    // accessors; report them like any other bad input instead of
    // aborting.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_compare: malformed artifact: %s\n",
                     e.what());
        return 2;
    }
}
