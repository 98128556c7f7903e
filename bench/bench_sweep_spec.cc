/**
 * @file
 * The one figure driver: runs a declarative sweep spec (every paper
 * figure and ablation is one under bench/specs/) through the shared
 * bench harness, so every harness layer — thread pool, --shard,
 * --ckpt-dir, idle-skip, --json artifacts — works on a grid
 * described purely as data. A threshold/partition/window study is a
 * spec edit, not a recompile.
 *
 *   bench_sweep_spec --spec bench/specs/fig13_speedup.json \
 *       [any bench::Harness flag]
 *
 * The driver prints a per-cell table, then one "name value" line per
 * member of the spec's derived block, and writes those members to
 * the artifact's "derived" object. The closing "N cell(s), M failed"
 * line counts halted, truncated and errored cells (the smoke ctests
 * gate on it); of those, only errored cells make the exit code
 * nonzero.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/sweep_spec.hh"

using namespace cdfsim;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::fprintf(stderr,
                 "usage: bench_sweep_spec --spec FILE.json "
                 "[bench::Harness flags]\n"
                 "  (--threads/--workloads/--json/--shard/--ckpt-dir/"
                 "... all apply)\n");
    std::exit(code);
}

} // namespace

int
main(int argc, char **argv)
{
    // Pull --spec out before the harness sees the argument list; the
    // rest of the CLI is the standard harness surface.
    std::string specPath;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--spec") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "bench_sweep_spec: --spec needs a "
                             "value\n");
                usage(2);
            }
            specPath = argv[i];
        } else if (std::strncmp(argv[i], "--spec=", 7) == 0) {
            specPath = argv[i] + 7;
        } else {
            rest.push_back(argv[i]);
        }
    }
    if (specPath.empty()) {
        std::fprintf(stderr,
                     "bench_sweep_spec: --spec is required\n");
        usage(2);
    }

    sim::SweepSpec spec("unloaded");
    std::vector<sim::SweepCell> cells;
    try {
        spec = sim::SweepSpec::fromFile(specPath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_sweep_spec: %s\n", e.what());
        return 2;
    }

    bench::Harness h(spec.name(), static_cast<int>(rest.size()),
                     rest.data());
    // Validate --workloads against everything the spec names (exits
    // with the usual unknown-workload diagnostic); expansion then
    // applies the filter per group with subset-intersection
    // semantics.
    h.checkWorkloads(spec.workloadUnion());
    try {
        cells = spec.expand(ooo::CoreConfig{}, h.workloadFilter());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_sweep_spec: %s\n", e.what());
        return 2;
    }
    if (cells.empty()) {
        std::fprintf(stderr,
                     "bench_sweep_spec: %s expands to no cells "
                     "(over-restrictive --workloads?)\n",
                     specPath.c_str());
        return 2;
    }
    h.addCells(std::move(cells));
    h.run();

    std::printf("\n== %s (%s) ==\n", spec.name().c_str(),
                specPath.c_str());
    std::printf("%-12s %12s %12s %12s %12s %12s\n", "workload",
                "variant", "status", "ipc", "mlp", "energy_uj");
    for (const auto &o : h.outcomes()) {
        if (o.skipped)
            continue;
        if (o.failed()) {
            std::printf("%-12s %12s %12s\n", o.cell.workload.c_str(),
                        o.cell.variant.c_str(),
                        o.error.empty() ? o.run.status() : "error");
            continue;
        }
        std::printf("%-12s %12s %12s %12.3f %12.2f %12.1f\n",
                    o.cell.workload.c_str(), o.cell.variant.c_str(),
                    o.run.status(), o.run.core.ipc, o.run.core.mlp,
                    o.run.energy.totalUj);
    }

    const std::vector<sim::DerivedValue> derived =
        spec.evaluateDerived(h.outcomes());
    if (!derived.empty())
        std::printf("\n");
    for (const sim::DerivedValue &d : derived) {
        if (d.excluded > 0) {
            std::fprintf(stderr,
                         "warning: excluded %zu row(s) from %s (failed "
                         "cell or non-positive value)\n",
                         d.excluded, d.name.c_str());
        }
        std::printf("%s %.6f\n", d.name.c_str(), d.value);
        h.derived()[d.name] = d.value;
    }

    std::printf("\n%zu cell(s), %zu failed (%u threads)\n",
                h.outcomes().size(), h.failures(), h.threads());
    return h.finish();
}
