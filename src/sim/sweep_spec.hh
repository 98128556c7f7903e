/**
 * @file
 * Declarative sweep descriptions: every figure and ablation matrix,
 * as data.
 *
 * Every figure/ablation runs the same shape of matrix — (workload x
 * mode x config overrides x run window) — plus a few aggregates over
 * it ("geomean over the workloads of metric(variant) /
 * metric(base)"). SweepSpec is the data form of both: named workload
 * sets, variant lists, config-override axes (cross-product or
 * zipped) and run-window overrides, expanded into the exact
 * SweepCell list SweepRunner consumes, and a `derived` block of
 * aggregates evaluated over the finished cells. Specs are
 * schema-versioned JSON files under `bench/specs/`, run by the
 * `bench_sweep_spec` driver.
 *
 * Expansion order is deterministic and part of the contract: for
 * each group in declaration order, for each axis-value combination
 * (first axis outermost; zipped axes advance in lockstep), for each
 * workload, for each variant. Shards (--shard) and artifacts are
 * defined over that order.
 *
 * Validation failures throw std::runtime_error with a message that
 * names the offending spec path (e.g. "groups[2].variants[1].mode").
 */

#ifndef CDFSIM_SIM_SWEEP_SPEC_HH
#define CDFSIM_SIM_SWEEP_SPEC_HH

#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "sim/sweep.hh"

namespace cdfsim::sim
{

/** One dotted-key config override, e.g. {"cdf.partition.dynamic",
 *  false}. Keys are the snake_case JSON names, not C++ members. */
struct SpecOverride
{
    std::string key;
    Json value;
};

/**
 * A partial RunSpec: only fields explicitly set override the level
 * below (defaults -> group -> axis value -> variant).
 */
struct SpecWindow
{
    /** Sentinel for "keep the inherited value". */
    static constexpr std::uint64_t kKeep = ~std::uint64_t{0};

    std::uint64_t warmupInstrs = kKeep;
    std::uint64_t measureInstrs = kKeep;
    std::uint64_t maxCycles = kKeep;

    void
    applyTo(RunSpec &spec) const
    {
        if (warmupInstrs != kKeep)
            spec.warmupInstrs = warmupInstrs;
        if (measureInstrs != kKeep)
            spec.measureInstrs = measureInstrs;
        if (maxCycles != kKeep)
            spec.maxCycles = maxCycles;
    }
};

/** One point on an axis: a tag appended to variant names plus the
 *  overrides it stands for. */
struct SpecAxisValue
{
    std::string tag;
    std::vector<SpecOverride> config;
    SpecWindow window;
};

/** One config-override axis (e.g. the Fig. 17 window scale). */
struct SpecAxis
{
    std::string name;
    std::vector<SpecAxisValue> values;
};

/** One run variant within a group (e.g. "cdf_nobr"). */
struct SpecVariant
{
    std::string name;
    ooo::CoreMode mode = ooo::CoreMode::Baseline;
    std::vector<SpecOverride> config;
    SpecWindow window;
};

/** A (workloads x axes x variants) block of the matrix. */
struct SpecGroup
{
    std::vector<std::string> workloads;
    std::vector<SpecAxis> axes;
    /** Advance all axes in lockstep instead of a cross product
     *  (every axis must then have the same number of values). */
    bool zip = false;
    SpecWindow window;
    std::vector<SpecVariant> variants;
};

/**
 * One aggregate over the finished matrix: @p agg over the workloads
 * of metric(variant), or of metric(variant) / metric(relativeTo)
 * when relativeTo is set. A non-empty filterVariant keeps only the
 * workloads whose filterVariant cell has filterMetric > filterGt.
 *
 * Exclusion rule: a workload's row counts only when every cell it
 * reads is ok and every value it reads is positive (a geomean needs
 * positive ratios, a ratio a positive divisor). The one exception is
 * a `mean` numerator, which may be zero: a zero fraction is a
 * sample, not a failed run. Metrics are dotted paths to a numeric
 * member of an artifact run row ("core.ipc", "energy.total_uj").
 */
struct SpecDerived
{
    enum class Agg { Geomean, Mean };

    std::string name;
    std::string metric;
    std::string variant;
    std::string relativeTo;
    Agg agg = Agg::Geomean;
    std::string filterVariant;
    std::string filterMetric;
    double filterGt = 0.0;
};

/** One evaluated aggregate. @p value is NaN when every row was
 *  excluded or filtered out; @p excluded counts rows dropped by the
 *  exclusion rule (not by the filter). */
struct DerivedValue
{
    std::string name;
    double value = 0.0;
    std::size_t excluded = 0;
};

/**
 * A complete declarative sweep. See the README "Sweep specs" section
 * for the JSON schema (sweep_spec_schema_version 1).
 */
class SweepSpec
{
  public:
    explicit SweepSpec(std::string name) : name_(std::move(name)) {}

    /** Parse a spec document. @p where prefixes every error message
     *  (normally the file path). Throws std::runtime_error. */
    static SweepSpec fromJson(const Json &doc,
                              const std::string &where);

    /** Read + parse a spec file. Throws std::runtime_error. */
    static SweepSpec fromFile(const std::string &path);

    const std::string &name() const { return name_; }

    /** Every distinct workload any group names, in first-appearance
     *  order — the "available" list for a --workloads filter. */
    std::vector<std::string> workloadUnion() const;

    /**
     * Expand to the cell list, in the documented deterministic
     * order. @p filter, when non-empty, restricts each group to the
     * filter's workloads in FILTER order (the --workloads
     * semantics); entries no group names are ignored here —
     * validate them against workloadUnion() first.
     * Throws std::runtime_error on duplicate (workload, variant)
     * cells or invalid overrides, naming the spec path.
     */
    std::vector<SweepCell>
    expand(const ooo::CoreConfig &base,
           const std::vector<std::string> &filter = {}) const;

    /**
     * Evaluate the derived block over @p outcomes (this spec's
     * matrix in expansion order; skipped cells — other shards' —
     * are absent rows, not excluded ones). Rows are visited in
     * outcome order, so the result is deterministic.
     */
    std::vector<DerivedValue>
    evaluateDerived(const std::vector<SweepOutcome> &outcomes) const;

  private:
    /**
     * Append a group. @p workloads entries may be literal workload
     * names, "@set" references (sets defined in workloadSets_), or
     * "*" (every workload); they are resolved and validated
     * immediately. Throws on unknown names.
     */
    SpecGroup &group(std::vector<std::string> workloads);

    std::string name_;
    RunSpec defaults_{};
    std::vector<std::pair<std::string, std::vector<std::string>>>
        workloadSets_;
    std::vector<SpecGroup> groups_;
    std::vector<SpecDerived> derived_;
};

/**
 * Apply one override to @p config. @p key is the dotted path of a
 * boolean or numeric leaf of CoreConfig's fields() visitor
 * (`rob_size`, `cdf.load_table.strict_bits`, `mem.llc.ways`, ...;
 * overridableFields() lists them), or one of two special keys.
 * "skip_idle_cycles" sets the host-only knob of that name.
 * "scale_window" is an action: it calls CoreConfig::scaleWindow
 * with a number, or with the string "cdf_area_equivalent" the
 * factor that grows @p config's window by CDF's structure area
 * (1 + 4 * cdfArea / coreArea, the Fig. 17 area-equivalent
 * baseline). Throws std::runtime_error prefixed with @p where on
 * unknown or non-overridable keys, type mismatches and a factor
 * that scales a structure outside [1, 2^32-1].
 */
void applyConfigOverride(ooo::CoreConfig &config,
                         const std::string &key, const Json &value,
                         const std::string &where);

/**
 * Every leaf applyConfigOverride() accepts, except the two special
 * keys, mapped to its value in @p config, in declaration order.
 */
Json overridableFields(const ooo::CoreConfig &config);

/** Parse "baseline"/"cdf"/"pre"; throws naming @p where otherwise. */
ooo::CoreMode parseCoreMode(const std::string &text,
                            const std::string &where);

} // namespace cdfsim::sim

#endif // CDFSIM_SIM_SWEEP_SPEC_HH
