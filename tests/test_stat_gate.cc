/**
 * @file
 * The one pin set for simulated behaviour.
 *
 * Runs every cell of bench/specs/smoke.json on the default core and
 * checks the FNV-1a fingerprint of each row's compact
 * sim::toJson(SweepOutcome) — core result, energy report and every
 * stat counter — against tests/stat_pins.json. Pins and cells must
 * match by name both ways, so a renamed variant cannot balance out an
 * added one. Host-side work must keep this green in every build,
 * instrumented ones included; an intended stats change copies the
 * stat_pins.candidate.json this test writes beside its binary over
 * the pins, and says so in the PR. `bench_compare --tolerance 0` on
 * smoke artifacts from both commits names the stats that moved.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/hash.hh"
#include "sim/sweep_spec.hh"

using namespace cdfsim;

TEST(StatGate, BitIdenticalAcrossWorkloadsAndModes)
{
    const std::string pinsPath =
        std::string(CDFSIM_SOURCE_DIR) + "/tests/stat_pins.json";
    const std::string candidatePath =
        std::string(CDFSIM_TEST_BINARY_DIR) + "/stat_pins.candidate.json";
    const auto spec = sim::SweepSpec::fromFile(
        std::string(CDFSIM_SOURCE_DIR) + "/bench/specs/smoke.json");

    Json measured = Json::object();
    for (const auto &o : sim::SweepRunner(0).runAll(
             spec.expand(ooo::CoreConfig{}, {}))) {
        char hex[24];
        std::snprintf(hex, sizeof(hex), "0x%016" PRIx64,
                      fnv1a64(sim::toJson(o).dump(-1)));
        measured[o.cell.workload + "/" + o.cell.variant] =
            std::string(hex);
    }
    Json candidate = Json::object();
    candidate["about"] =
        "FNV-1a of each cell's compact sim::toJson(SweepOutcome) for "
        "bench/specs/smoke.json on the default core; checked by "
        "test_stat_gate, regenerate with cp "
        "build/tests/stat_pins.candidate.json tests/stat_pins.json";
    candidate[spec.name()] = measured;
    std::ofstream(candidatePath) << candidate.dump(1);

    std::ifstream in(pinsPath);
    std::ostringstream text;
    text << in.rdbuf();
    const Json pinsDoc = Json::parse(text.str());
    const Json *pins = pinsDoc.find(spec.name());
    ASSERT_NE(pins, nullptr)
        << pinsPath << " has no \"" << spec.name() << "\" object";
    for (const auto &[key, fingerprint] : measured.members()) {
        if (const Json *pin = pins->find(key))
            EXPECT_EQ(fingerprint.asString(), pin->asString())
                << key << " moved a simulated stat";
        else
            ADD_FAILURE() << key << " is a smoke-spec cell with no pin";
    }
    for (const auto &[key, pin] : pins->members()) {
        if (!measured.find(key))
            ADD_FAILURE() << key << " is pinned but the smoke spec no "
                                    "longer expands it";
    }
    if (HasFailure())
        std::fprintf(stderr, "if the change is intended: cp %s %s\n",
                     candidatePath.c_str(), pinsPath.c_str());
}
