/**
 * @file
 * Unit tests for sim::SweepSpec: deterministic expansion order
 * (groups -> axis combinations -> workloads -> variants), product vs
 * zipped axes, --workloads filter semantics, the config-override
 * keys (CoreConfig field paths), the derived block's aggregates and
 * exclusion rule, and the validation errors that must name the
 * offending spec path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "energy/energy_model.hh"
#include "ooo/core_config.hh"
#include "sim/sweep_spec.hh"
#include "workloads/workloads.hh"

using cdfsim::Json;
using cdfsim::ooo::CoreConfig;
using cdfsim::ooo::CoreMode;
using cdfsim::sim::SweepCell;
using cdfsim::sim::SweepOutcome;
using cdfsim::sim::SweepSpec;

namespace
{

std::vector<std::string>
cellIds(const std::vector<SweepCell> &cells)
{
    std::vector<std::string> ids;
    for (const SweepCell &c : cells)
        ids.push_back(c.workload + "/" + c.variant);
    return ids;
}

Json
parseOrDie(const std::string &text)
{
    std::string error;
    Json doc = Json::parse(text, &error);
    EXPECT_TRUE(!doc.isNull()) << error;
    return doc;
}

/** A spec named "t" whose remaining top-level members are @p body
 *  (JSON object members without the enclosing braces). */
SweepSpec
specOf(const std::string &body)
{
    return SweepSpec::fromJson(
        parseOrDie(R"({"sweep": "t", "schema_version": 1, )" + body +
                   "}"),
        "spec");
}

/** An ok outcome of cell @p workload/@p variant with the given IPC
 *  and MLP. */
SweepOutcome
outcome(const std::string &workload, const std::string &variant,
        double ipc, double mlp = 1.0)
{
    SweepOutcome o;
    o.cell.workload = workload;
    o.cell.variant = variant;
    o.run.core.ipc = ipc;
    o.run.core.mlp = mlp;
    return o;
}

/** EXPECT that @p fn throws std::runtime_error whose message
 *  contains @p needle (the spec path naming the offense). */
template <typename Fn>
void
expectSpecError(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected a spec error mentioning '" << needle
               << "'";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "error message '" << e.what()
            << "' does not mention '" << needle << "'";
    }
}

TEST(SweepSpec, ExpansionOrderIsWorkloadOuterVariantInner)
{
    const SweepSpec spec = specOf(R"("groups": [{
        "workloads": ["astar", "mcf"],
        "variants": [{"name": "base", "mode": "baseline"},
                     {"name": "cdf", "mode": "cdf"}]}])");

    const auto cells = spec.expand(CoreConfig{});
    EXPECT_EQ(cellIds(cells),
              (std::vector<std::string>{"astar/base", "astar/cdf",
                                        "mcf/base", "mcf/cdf"}));
    EXPECT_EQ(cells[1].mode, CoreMode::Cdf);
    EXPECT_EQ(cells[1].config.mode, CoreMode::Cdf);
}

TEST(SweepSpec, GroupsExpandInDeclarationOrder)
{
    const SweepSpec spec = specOf(R"("groups": [
        {"workloads": ["mcf"],
         "variants": [{"name": "cdf", "mode": "cdf"}]},
        {"workloads": ["astar"],
         "variants": [{"name": "base", "mode": "baseline"}]}])");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{})),
              (std::vector<std::string>{"mcf/cdf", "astar/base"}));
}

TEST(SweepSpec, ProductAxesFirstAxisOutermost)
{
    const SweepSpec spec = specOf(R"("groups": [{
        "workloads": ["astar"],
        "axes": [{"name": "outer", "values": [{"tag": "o1"},
                                             {"tag": "o2"}]},
                 {"name": "inner", "values": [{"tag": "i1"},
                                             {"tag": "i2"}]}],
        "variants": [{"name": "v", "mode": "baseline"}]}])");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{})),
              (std::vector<std::string>{
                  "astar/v@o1@i1", "astar/v@o1@i2", "astar/v@o2@i1",
                  "astar/v@o2@i2"}));
}

TEST(SweepSpec, ZippedAxesAdvanceInLockstep)
{
    const SweepSpec spec = specOf(R"("groups": [{
        "workloads": ["astar"],
        "zip": true,
        "axes": [{"name": "a", "values": [{"tag": "a1"},
                                         {"tag": "a2"}]},
                 {"name": "b", "values": [{"tag": "b1"},
                                         {"tag": "b2"}]}],
        "variants": [{"name": "v", "mode": "baseline"}]}])");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{})),
              (std::vector<std::string>{"astar/v@a1@b1",
                                        "astar/v@a2@b2"}));
}

TEST(SweepSpec, EmptyAxisTagAddsNoSuffix)
{
    const SweepSpec spec = specOf(R"("groups": [{
        "workloads": ["astar"],
        "axes": [{"name": "a", "values": [{"tag": ""}]}],
        "variants": [{"name": "v", "mode": "baseline"}]}])");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{})),
              (std::vector<std::string>{"astar/v"}));
}

TEST(SweepSpec, FilterRestrictsToFilterOrder)
{
    const SweepSpec spec = specOf(R"("groups": [{
        "workloads": ["astar", "mcf", "lbm"],
        "variants": [{"name": "base", "mode": "baseline"}]}])");

    // Filter order wins over group order, and unmatched entries in
    // the group vanish.
    const auto cells =
        spec.expand(CoreConfig{}, {"lbm", "astar"});
    EXPECT_EQ(cellIds(cells), (std::vector<std::string>{
                                  "lbm/base", "astar/base"}));
}

TEST(SweepSpec, FilterCanEmptyOutAGroup)
{
    const SweepSpec spec = specOf(R"("groups": [
        {"workloads": ["astar"],
         "variants": [{"name": "base", "mode": "baseline"}]},
        {"workloads": ["mcf"],
         "variants": [{"name": "cdf", "mode": "cdf"}]}])");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{}, {"mcf"})),
              (std::vector<std::string>{"mcf/cdf"}));
}

TEST(SweepSpec, WindowLayersDefaultsGroupAxisVariant)
{
    const SweepSpec spec = specOf(R"(
        "defaults": {"warmup_instrs": 1000, "measure_instrs": 2000,
                     "max_cycles": 3000},
        "groups": [{
            "workloads": ["astar"],
            "spec": {"measure_instrs": 20},
            "variants": [{"name": "v", "mode": "baseline",
                          "spec": {"max_cycles": 30}},
                         {"name": "w", "mode": "baseline"}]}])");

    const auto cells = spec.expand(CoreConfig{});
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].spec.warmupInstrs, 1'000u); // from defaults
    EXPECT_EQ(cells[0].spec.measureInstrs, 20u);   // group override
    EXPECT_EQ(cells[0].spec.maxCycles, 30u);       // variant override
    EXPECT_EQ(cells[1].spec.maxCycles, 3'000u);    // untouched
}

TEST(SweepSpec, ConfigOverridesApplyAxisThenVariant)
{
    const SweepSpec spec = specOf(R"("groups": [{
        "workloads": ["astar"],
        "axes": [{"name": "size",
                  "values": [{"tag": "big",
                              "config": {"rob_size": 512}}]}],
        "variants": [{"name": "v", "mode": "cdf",
                      "config": {"rob_size": 64,
                                 "cdf.partition.dynamic": false}}]}])");

    const auto cells = spec.expand(CoreConfig{});
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].config.robSize, 64u); // variant wins
    EXPECT_FALSE(cells[0].config.cdf.partition.dynamic);
}

TEST(SweepSpec, ScaleWindowOverrideMatchesCoreConfigScaleWindow)
{
    CoreConfig direct;
    direct.scaleWindow(0.5);

    CoreConfig viaSpec;
    cdfsim::sim::applyConfigOverride(viaSpec, "scale_window",
                                     Json(0.5), "here");
    EXPECT_EQ(viaSpec.robSize, direct.robSize);
    EXPECT_EQ(viaSpec.rsSize, direct.rsSize);
    EXPECT_EQ(viaSpec.lqSize, direct.lqSize);
    EXPECT_EQ(viaSpec.sqSize, direct.sqSize);
    EXPECT_EQ(viaSpec.physRegs, direct.physRegs);
}

TEST(SweepSpec, AreaEquivalentScaleMatchesEnergyModel)
{
    using cdfsim::energy::Model;
    const CoreConfig base;
    CoreConfig direct = base;
    direct.scaleWindow(1.0 + 4.0 * Model::cdfArea(base) /
                                 Model::coreArea(base));

    CoreConfig viaSpec = base;
    cdfsim::sim::applyConfigOverride(viaSpec, "scale_window",
                                     Json("cdf_area_equivalent"),
                                     "here");
    EXPECT_GT(viaSpec.robSize, base.robSize);
    EXPECT_EQ(viaSpec.robSize, direct.robSize);
    EXPECT_EQ(viaSpec.rsSize, direct.rsSize);
    EXPECT_EQ(viaSpec.lqSize, direct.lqSize);
    EXPECT_EQ(viaSpec.sqSize, direct.sqSize);
    EXPECT_EQ(viaSpec.physRegs, direct.physRegs);

    expectSpecError(
        [] {
            CoreConfig c;
            cdfsim::sim::applyConfigOverride(
                c, "scale_window", Json("huge"), "here");
        },
        "unknown scale_window 'huge'");
}

TEST(SweepSpec, ScaleWindowOutOfRangeIsRejected)
{
    // Each factor would scale some structure below 1 entry or past
    // 2^32-1, where the cast to unsigned would wrap.
    for (const auto &[factor, text] :
         {std::pair{-1.0, "-1"}, {0.0, "0"}, {1e10, "1e+10"}}) {
        const SweepSpec spec = specOf(
            R"("groups": [{"workloads": ["astar"],
                "variants": [{"name": "v", "mode": "cdf",
                              "config": {"scale_window": )" +
            Json(factor).dump() + "}}]}]");
        expectSpecError([&] { spec.expand(CoreConfig{}); },
                        "groups[0].variants[0].config.scale_window: "
                        "scale_window " +
                            std::string(text) +
                            " scales a window structure outside "
                            "[1, 2^32-1]");
        CoreConfig direct;
        EXPECT_FALSE(direct.scaleWindow(factor)) << text;
        EXPECT_EQ(direct.robSize, CoreConfig{}.robSize) << text;
    }
}

TEST(SweepSpec, WorkloadSetAndStarResolve)
{
    const SweepSpec spec = specOf(R"(
        "workload_sets": {"pair": ["mcf", "astar"]},
        "groups": [{"workloads": ["@pair"],
                    "variants": [{"name": "v", "mode": "baseline"}]}])");

    EXPECT_EQ(cellIds(spec.expand(CoreConfig{})),
              (std::vector<std::string>{"mcf/v", "astar/v"}));

    const SweepSpec all = specOf(R"("groups": [{
        "workloads": ["*"],
        "variants": [{"name": "v", "mode": "baseline"}]}])");
    EXPECT_EQ(
        all.workloadUnion(),
        cdfsim::workloads::allWorkloadNames());
}

// ---------------------------------------------------- derived block

TEST(SweepSpec, DerivedExcludesZeroRowsInsteadOfFlooring)
{
    const SweepSpec spec = specOf(R"(
        "groups": [{"workloads": ["astar", "mcf", "lbm", "soplex"],
                    "variants": [{"name": "base", "mode": "baseline"},
                                 {"name": "cdf", "mode": "cdf"}]}],
        "derived": [{"name": "speedup", "metric": "core.ipc",
                     "variant": "cdf", "relative_to": "base",
                     "agg": "geomean"}])");

    const std::vector<SweepOutcome> outcomes = {
        outcome("astar", "base", 1.0), outcome("astar", "cdf", 2.0),
        // A zero numerator and a zero divisor: both rows drop out.
        outcome("mcf", "base", 1.0), outcome("mcf", "cdf", 0.0),
        outcome("lbm", "base", 2.0), outcome("lbm", "cdf", 8.0),
        outcome("soplex", "base", 0.0), outcome("soplex", "cdf", 1.0)};
    const auto got = spec.evaluateDerived(outcomes);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].name, "speedup");
    EXPECT_DOUBLE_EQ(got[0].value, std::sqrt(2.0 * 4.0));
    EXPECT_EQ(got[0].excluded, 2u);
}

TEST(SweepSpec, DerivedFailedCellsAreExcludedAndSkippedOnesAbsent)
{
    const SweepSpec spec = specOf(R"(
        "groups": [{"workloads": ["astar", "mcf", "lbm"],
                    "variants": [{"name": "base", "mode": "baseline"},
                                 {"name": "cdf", "mode": "cdf"}]}],
        "derived": [{"name": "speedup", "metric": "core.ipc",
                     "variant": "cdf", "relative_to": "base",
                     "agg": "geomean"}])");

    std::vector<SweepOutcome> outcomes = {
        outcome("astar", "base", 1.0), outcome("astar", "cdf", 3.0),
        outcome("mcf", "base", 1.0), outcome("mcf", "cdf", 2.0),
        outcome("lbm", "base", 1.0), outcome("lbm", "cdf", 2.0)};
    outcomes[2].run.truncated = true; // mcf's divisor cell failed
    outcomes[5].skipped = true;       // lbm's cdf cell: another shard
    auto got = spec.evaluateDerived(outcomes);
    EXPECT_DOUBLE_EQ(got[0].value, 3.0);
    EXPECT_EQ(got[0].excluded, 1u);

    // Every row excluded: the aggregate is undefined, not 0.
    outcomes[1].error = "boom";
    got = spec.evaluateDerived(outcomes);
    EXPECT_TRUE(std::isnan(got[0].value));
    EXPECT_EQ(got[0].excluded, 2u);
}

TEST(SweepSpec, DerivedFilterReadsTheNamedVariant)
{
    // The filter thresholds the relative_to variant's MLP, not the
    // variant being aggregated (Fig. 14's "base MLP > 0.05").
    const SweepSpec spec = specOf(R"(
        "groups": [{"workloads": ["astar", "mcf", "lbm"],
                    "axes": [{"name": "s", "values": [{"tag": "1"}]}],
                    "variants": [{"name": "base", "mode": "baseline"},
                                 {"name": "cdf", "mode": "cdf"}]}],
        "derived": [{"name": "mlp_rel", "metric": "core.mlp",
                     "variant": "cdf@1", "relative_to": "base@1",
                     "agg": "geomean",
                     "filter": {"variant": "base@1",
                                "metric": "core.mlp", "gt": 0.05}}])");

    const std::vector<SweepOutcome> outcomes = {
        outcome("astar", "base@1", 1.0, 2.0),
        outcome("astar", "cdf@1", 1.0, 4.0),
        outcome("mcf", "base@1", 1.0, 0.01), // filtered out
        outcome("mcf", "cdf@1", 1.0, 5.0),
        outcome("lbm", "base@1", 1.0, 1.0),
        outcome("lbm", "cdf@1", 1.0, 8.0)};
    const auto got = spec.evaluateDerived(outcomes);
    EXPECT_DOUBLE_EQ(got[0].value, 4.0); // sqrt(2 * 8)
    EXPECT_EQ(got[0].excluded, 0u);      // filtering is not exclusion
}

TEST(SweepSpec, DerivedMeanKeepsZeroSamplesGeomeanDoesNot)
{
    const SweepSpec spec = specOf(R"(
        "groups": [{"workloads": ["astar", "mcf", "lbm"],
                    "variants": [{"name": "v", "mode": "baseline"}]}],
        "derived": [
            {"name": "m", "metric": "core.ipc", "variant": "v",
             "agg": "mean"},
            {"name": "g", "metric": "core.ipc", "variant": "v",
             "agg": "geomean"}])");

    const std::vector<SweepOutcome> outcomes = {
        outcome("astar", "v", 0.0), outcome("mcf", "v", 1.0),
        outcome("lbm", "v", 4.0)};
    const auto got = spec.evaluateDerived(outcomes);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0].value, 5.0 / 3.0);
    EXPECT_EQ(got[0].excluded, 0u);
    EXPECT_DOUBLE_EQ(got[1].value, 2.0);
    EXPECT_EQ(got[1].excluded, 1u);
}

TEST(SweepSpec, DerivedErrorsNameTheOffendingPath)
{
    const std::string groups = R"(
        "groups": [{"workloads": ["astar"],
                    "variants": [{"name": "base", "mode": "baseline"},
                                 {"name": "cdf", "mode": "cdf"}]}],
        "derived": [{"name": "ok", "metric": "core.ipc",
                     "variant": "cdf", "agg": "mean"}, )";
    expectSpecError(
        [&] {
            specOf(groups + R"({"name": "x", "metric": "core.ipc",
                "variant": "nope", "agg": "geomean"}])");
        },
        "spec.derived[1].variant");
    expectSpecError(
        [&] {
            specOf(groups + R"({"name": "x", "metric": "core.ipcc",
                "variant": "cdf", "agg": "geomean"}])");
        },
        "spec.derived[1].metric");
    expectSpecError(
        [&] {
            specOf(groups + R"({"name": "x", "metric": "core.ipc",
                "variant": "cdf", "agg": "median"}])");
        },
        "spec.derived[1].agg");
    expectSpecError(
        [&] {
            specOf(groups + R"({"name": "x", "metric": "core.ipc",
                "variant": "cdf", "relative_to": "base@2",
                "agg": "geomean"}])");
        },
        "spec.derived[1].relative_to");
    expectSpecError(
        [&] {
            specOf(groups + R"({"name": "x", "metric": "core",
                "variant": "cdf", "agg": "geomean",
                "filter": {"variant": "base", "metric": "core.mlp",
                           "gt": 0.05}}])");
        },
        "spec.derived[1].metric");
    expectSpecError(
        [&] {
            specOf(groups + R"({"name": "ok", "metric": "core.ipc",
                "variant": "cdf", "agg": "geomean"}])");
        },
        "spec.derived[1].name");
}

// ------------------------------------------------- validation errors

TEST(SweepSpec, ErrorsNameTheOffendingPath)
{
    // Missing variant mode.
    expectSpecError(
        [] {
            SweepSpec::fromJson(
                parseOrDie(R"({"sweep": "t", "schema_version": 1,
                    "groups": [{"workloads": ["astar"],
                        "variants": [{"name": "v"}]}]})"),
                "spec");
        },
        "spec.groups[0].variants[0]");

    // Bad mode string.
    expectSpecError(
        [] {
            SweepSpec::fromJson(
                parseOrDie(R"({"sweep": "t", "schema_version": 1,
                    "groups": [{"workloads": ["astar"],
                        "variants": [{"name": "v",
                                      "mode": "turbo"}]}]})"),
                "spec");
        },
        "spec.groups[0].variants[0].mode");

    // Typo'd member must not silently no-op.
    expectSpecError(
        [] {
            SweepSpec::fromJson(
                parseOrDie(R"({"sweep": "t", "schema_version": 1,
                    "groups": [{"workloads": ["astar"],
                        "varients": [],
                        "variants": [{"name": "v",
                                      "mode": "cdf"}]}]})"),
                "spec");
        },
        "spec.groups[0].varients");

    // Unsupported schema version.
    expectSpecError(
        [] {
            SweepSpec::fromJson(
                parseOrDie(R"({"sweep": "t", "schema_version": 2,
                    "groups": []})"),
                "spec");
        },
        "spec.schema_version");

    // Zipped axes of unequal length.
    expectSpecError(
        [] {
            SweepSpec::fromJson(
                parseOrDie(R"({"sweep": "t", "schema_version": 1,
                    "groups": [{"workloads": ["astar"], "zip": true,
                        "axes": [
                            {"name": "a", "values": [{"tag": "1"},
                                                     {"tag": "2"}]},
                            {"name": "b", "values": [{"tag": "1"}]}],
                        "variants": [{"name": "v",
                                      "mode": "cdf"}]}]})"),
                "spec");
        },
        "spec.groups[0].axes");
}

TEST(SweepSpec, UnknownWorkloadAndSetAreRejected)
{
    for (const char *workload : {"no_such_workload", "@no_such_set"}) {
        expectSpecError(
            [&] {
                specOf(std::string(R"("groups": [{"workloads": [")") +
                       workload + R"("],
                    "variants": [{"name": "v",
                                  "mode": "baseline"}]}])");
            },
            "spec: groups[0].workloads");
    }
}

TEST(SweepSpec, UnknownOverrideKeyIsRejectedAtExpand)
{
    const SweepSpec spec = specOf(R"("groups": [{
        "workloads": ["astar"],
        "variants": [{"name": "v", "mode": "cdf",
                      "config": {"cdf.no_such_knob": true}}]}])");
    expectSpecError([&] { spec.expand(CoreConfig{}); },
                    "groups[0].variants[0].config.cdf.no_such_knob");
}

TEST(SweepSpec, EveryConfigLeafIsAnOverrideKey)
{
    using cdfsim::sim::applyConfigOverride;
    using cdfsim::sim::overridableFields;
    const Json defaults = overridableFields(CoreConfig{});
    // Keys from every sub-struct: memory, predictor, CDF, core.
    for (const char *key : {"mem.llc.ways", "bp.tage.num_tables",
                            "cdf.uop_cache.fill_latency",
                            "deadlock_cycles"})
        EXPECT_NE(defaults.find(key), nullptr) << key;

    for (const auto &[key, value] : defaults.members()) {
        Json bumped;
        if (value.type() == Json::Type::Bool)
            bumped = Json(!value.asBool());
        else if (value.type() == Json::Type::Double)
            bumped = Json(value.asNumber() + 0.25);
        else
            bumped = Json(value.asUint() + 1);
        CoreConfig c;
        applyConfigOverride(c, key, bumped, "here");
        const Json after = overridableFields(c);
        ASSERT_EQ(after.members().size(), defaults.members().size());
        for (std::size_t i = 0; i < after.members().size(); ++i) {
            const auto &[name, v] = after.members()[i];
            const Json &want =
                name == key ? bumped : defaults.members()[i].second;
            EXPECT_EQ(v.dump(), want.dump())
                << "override " << key << " -> " << name;
        }
    }
}

TEST(SweepSpec, NonOverridableConfigKeysNameThePath)
{
    const std::pair<const char *, Json> rejected[] = {
        {"mode", Json("cdf")},              // the variant's "mode"
        {"mem.l1i.name", Json("l1x")},      // string leaf
        {"profile_stages", Json(true)},     // host-only, not a key
        {"cdf.load_table.entires", Json(64u)}, // typo
        {"cdf.load_table", Json(64u)},      // a struct, not a leaf
    };
    for (const auto &[key, value] : rejected) {
        const SweepSpec spec = specOf(
            std::string(R"("groups": [{"workloads": ["astar"],
                "variants": [{"name": "v", "mode": "cdf",
                              "config": {")") +
            key + "\": " + value.dump() + "}}]}]");
        expectSpecError([&] { spec.expand(CoreConfig{}); },
                        std::string("groups[0].variants[0].config.") +
                            key + ": ");
    }

    // The host-only skip_idle_cycles stays a special key.
    CoreConfig c;
    cdfsim::sim::applyConfigOverride(c, "skip_idle_cycles", Json(false),
                                     "here");
    EXPECT_FALSE(c.skipIdleCycles);
}

TEST(SweepSpec, OverrideTypeMismatchIsRejected)
{
    // cdf.partition.dynamic is a boolean knob.
    const SweepSpec spec = specOf(R"("groups": [{
        "workloads": ["astar"],
        "variants": [{"name": "v", "mode": "cdf",
                      "config": {"cdf.partition.dynamic": 3}}]}])");
    expectSpecError([&] { spec.expand(CoreConfig{}); },
                    "expected a boolean");
}

TEST(SweepSpec, DuplicateCellsAreRejected)
{
    const SweepSpec spec = specOf(R"("groups": [{
        "workloads": ["astar"],
        "variants": [{"name": "v", "mode": "baseline"},
                     {"name": "v", "mode": "cdf"}]}])");
    expectSpecError([&] { spec.expand(CoreConfig{}); },
                    "duplicate cell astar/v");
}

TEST(SweepSpec, FromFileRejectsMissingFile)
{
    expectSpecError(
        [] { SweepSpec::fromFile("/no/such/spec.json"); },
        "/no/such/spec.json");
}

} // namespace
