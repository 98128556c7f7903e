/**
 * @file
 * Regenerates Table 1: the simulation parameters of the baseline
 * core, caches, prefetcher, memory and the added CDF structures,
 * as configured in this reproduction. With --json, every spec
 * override key and its default value lands under
 * derived.table1.config (sim::overridableFields), next to the area
 * model, so a config change anywhere in CoreConfig is diffable.
 */

#include <cinttypes>
#include <cstdio>

#include "bench_util.hh"
#include "energy/energy_model.hh"
#include "ooo/core_config.hh"
#include "sim/sweep_spec.hh"

using namespace cdfsim;

int
main(int argc, char **argv)
{
    bench::Harness h("bench_table1_config", argc, argv);
    ooo::CoreConfig c;
    const auto &m = c.mem;

    std::printf("== Table 1: Simulation Parameters ==\n\n");
    std::printf("Core        3.2 GHz, %u-wide issue, TAGE-SC-L-class "
                "predictor\n",
                c.width);
    std::printf("            %u-entry ROB, %u-entry Reservation "
                "Stations\n",
                c.robSize, c.rsSize);
    std::printf("            %u-entry Load & %u-entry Store Queues, "
                "%u physical registers\n",
                c.lqSize, c.sqSize, c.physRegs);
    std::printf("Caches      %" PRIu64 "KB %u-way L1 I-cache & D-cache, "
                "%u-cycle access\n",
                m.l1i.sizeBytes / 1024, m.l1i.ways, m.l1i.latency);
    std::printf("            %" PRIu64 "MB %u-way LLC, %u-cycle access, "
                "64B lines\n",
                m.llc.sizeBytes / (1024 * 1024), m.llc.ways,
                m.llc.latency);
    std::printf("Prefetcher  Stream prefetcher, %u streams (always "
                "on),\n            feedback-directed throttling "
                "(degree %u-%u)\n",
                m.prefetcher.streams, m.prefetcher.minDegree,
                m.prefetcher.maxDegree);
    std::printf("Memory      DDR4-2400-class: %u channels, %u bank "
                "groups x %u banks,\n            tRP-tCL-tRCD = "
                "%u-%u-%u core cycles, %uB rows... \n",
                m.dram.channels, m.dram.bankGroups,
                m.dram.banksPerGroup, m.dram.tRp, m.dram.tCl,
                m.dram.tRcd, m.dram.rowBytes);
    std::printf("CDF caches  %u-entry %u-way Critical Count Tables, "
                "1-cycle access\n",
                c.cdf.loadTable.entries, c.cdf.loadTable.ways);
    std::printf("            %u-entry Mask Cache (~4KB), 1-cycle "
                "access\n",
                c.cdf.maskCache.entries);
    std::printf("            %u-line Critical Uop Cache (~18KB), "
                "8 uops (8B each) per line\n",
                c.cdf.uopCache.capacityLines);
    std::printf("CDF FIFOs   %u-entry Fill Buffer (~16KB)\n",
                c.cdf.fillBuffer.capacity);
    std::printf("            %u-entry Delayed Branch Queue (~1KB)\n",
                c.cdf.dbqEntries);
    std::printf("            %u-entry Critical Map Queue (~512B)\n",
                c.cdf.cmqEntries);

    std::printf("\n== Area model (Section 4.3) ==\n");
    const double core = energy::Model::coreArea(c);
    const double cdf = energy::Model::cdfArea(c);
    std::printf("baseline core area  %.2f (arb. mm^2)\n", core);
    std::printf("CDF structures      %.2f (arb. mm^2) = %.1f%% "
                "overhead (paper: 3.2%%)\n",
                cdf, 100.0 * cdf / core);

    Json table = Json::object();
    table["config"] = sim::overridableFields(c);
    Json area = Json::object();
    area["core_mm2"] = core;
    area["cdf_mm2"] = cdf;
    area["cdf_overhead_fraction"] = cdf / core;
    table["area"] = std::move(area);
    h.derived()["table1"] = std::move(table);
    return h.finish();
}
