#include "sim/sweep_spec.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "energy/energy_model.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace cdfsim::sim
{

namespace
{

[[noreturn]] void
specError(const std::string &where, const std::string &what)
{
    throw std::runtime_error(where + ": " + what);
}

// --- Typed JSON accessors that name the offending path ---------------

bool
needBool(const Json &v, const std::string &where)
{
    if (v.type() != Json::Type::Bool)
        specError(where, "expected a boolean");
    return v.asBool();
}

double
needNumber(const Json &v, const std::string &where)
{
    if (v.type() != Json::Type::Int && v.type() != Json::Type::Uint &&
        v.type() != Json::Type::Double)
        specError(where, "expected a number");
    return v.asNumber();
}

std::uint64_t
needUint(const Json &v, const std::string &where)
{
    if (v.type() == Json::Type::Uint)
        return v.asUint();
    if (v.type() == Json::Type::Int && v.asNumber() >= 0)
        return v.asUint();
    specError(where, "expected a non-negative integer");
}

unsigned
needU32(const Json &v, const std::string &where)
{
    const std::uint64_t u = needUint(v, where);
    if (u > 0xFFFFFFFFull)
        specError(where, "value does not fit in 32 bits");
    return static_cast<unsigned>(u);
}

const std::string &
needString(const Json &v, const std::string &where)
{
    if (v.type() != Json::Type::String)
        specError(where, "expected a string");
    return v.asString();
}

const Json &
needObject(const Json &v, const std::string &where)
{
    if (v.type() != Json::Type::Object)
        specError(where, "expected an object");
    return v;
}

const Json &
needArray(const Json &v, const std::string &where)
{
    if (v.type() != Json::Type::Array)
        specError(where, "expected an array");
    return v;
}

/** Reject members outside @p allowed — typos must not silently
 *  no-op in a file that claims to describe an experiment. */
void
rejectUnknownMembers(const Json &obj, const std::string &where,
                     std::initializer_list<const char *> allowed)
{
    for (const auto &kv : obj.members()) {
        bool known = false;
        for (const char *a : allowed)
            known = known || kv.first == a;
        if (!known)
            specError(where + "." + kv.first, "unknown member");
    }
}

/**
 * Assign the override @p value to config leaf @p field. Booleans and
 * numbers are overridable; enums and strings (the mode, the cache
 * names) are not.
 */
template <typename T>
void
assignLeaf(T &field, const std::string &key, const Json &value,
           const std::string &where)
{
    if constexpr (std::is_same_v<T, bool>) {
        field = needBool(value, where);
    } else if constexpr (std::is_same_v<T, double>) {
        field = needNumber(value, where);
    } else if constexpr (std::is_same_v<T, unsigned>) {
        field = needU32(value, where);
    } else if constexpr (std::is_integral_v<T>) {
        static_assert(std::is_unsigned_v<T> && sizeof(T) == 8,
                      "config integers are unsigned, 32 or 64 bits");
        field = needUint(value, where);
    } else {
        specError(where, "config key '" + key +
                             "' is not overridable (only boolean "
                             "and numeric fields are)");
    }
}

} // namespace

void
applyConfigOverride(ooo::CoreConfig &config, const std::string &key,
                    const Json &value, const std::string &where)
{
    if (key == "scale_window") {
        double factor = 0.0;
        if (value.type() != Json::Type::String) {
            factor = needNumber(value, where);
        } else if (value.asString() == "cdf_area_equivalent") {
            // Grow the window by CDF's structure area: the baseline
            // a CDF core's extra silicon would otherwise buy
            // (Fig. 17).
            const double cdfAreaFrac = energy::Model::cdfArea(config) /
                                       energy::Model::coreArea(config);
            factor = 1.0 + cdfAreaFrac * 4.0;
        } else {
            specError(where, "unknown scale_window '" +
                                 value.asString() +
                                 "' (want a number or "
                                 "\"cdf_area_equivalent\")");
        }
        if (!config.scaleWindow(factor)) {
            std::ostringstream msg;
            msg << "scale_window " << factor
                << " scales a window structure outside [1, 2^32-1]";
            specError(where, msg.str());
        }
        return;
    }
    if (key == "skip_idle_cycles") {
        config.skipIdleCycles = needBool(value, where);
        return;
    }

    bool found = false;
    forEachField(config, [&](std::string_view path, auto &field) {
        if (path == key) {
            assignLeaf(field, key, value, where);
            found = true;
        }
    });
    if (!found)
        specError(where, "unknown config override key '" + key + "'");
}

Json
overridableFields(const ooo::CoreConfig &config)
{
    ooo::CoreConfig walked = config;
    Json out = Json::object();
    forEachField(walked, [&](std::string_view path, auto &field) {
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool> ||
                      std::is_same_v<T, double>)
            out[std::string(path)] = Json(field);
        else if constexpr (std::is_integral_v<T>)
            out[std::string(path)] =
                Json(static_cast<std::uint64_t>(field));
    });
    return out;
}

ooo::CoreMode
parseCoreMode(const std::string &text, const std::string &where)
{
    if (text == "baseline")
        return ooo::CoreMode::Baseline;
    if (text == "cdf")
        return ooo::CoreMode::Cdf;
    if (text == "pre")
        return ooo::CoreMode::Pre;
    specError(where, "unknown mode '" + text +
                         "' (want baseline, cdf or pre)");
}

namespace
{

SpecWindow
parseWindow(const Json &obj, const std::string &where)
{
    needObject(obj, where);
    rejectUnknownMembers(
        obj, where, {"warmup_instrs", "measure_instrs", "max_cycles"});
    SpecWindow w;
    if (const Json *v = obj.find("warmup_instrs"))
        w.warmupInstrs = needUint(*v, where + ".warmup_instrs");
    if (const Json *v = obj.find("measure_instrs"))
        w.measureInstrs = needUint(*v, where + ".measure_instrs");
    if (const Json *v = obj.find("max_cycles"))
        w.maxCycles = needUint(*v, where + ".max_cycles");
    return w;
}

std::vector<SpecOverride>
parseOverrides(const Json &obj, const std::string &where)
{
    needObject(obj, where);
    std::vector<SpecOverride> out;
    out.reserve(obj.members().size());
    for (const auto &kv : obj.members())
        out.push_back({kv.first, kv.second});
    return out;
}

SpecVariant
parseVariant(const Json &obj, const std::string &where)
{
    needObject(obj, where);
    rejectUnknownMembers(obj, where,
                         {"name", "mode", "config", "spec"});
    SpecVariant v;
    const Json *name = obj.find("name");
    if (!name)
        specError(where, "variant needs a \"name\"");
    v.name = needString(*name, where + ".name");
    if (v.name.empty())
        specError(where + ".name", "variant name must be non-empty");
    const Json *mode = obj.find("mode");
    if (!mode)
        specError(where, "variant needs a \"mode\"");
    v.mode = parseCoreMode(needString(*mode, where + ".mode"),
                           where + ".mode");
    if (const Json *cfg = obj.find("config"))
        v.config = parseOverrides(*cfg, where + ".config");
    if (const Json *spec = obj.find("spec"))
        v.window = parseWindow(*spec, where + ".spec");
    return v;
}

SpecAxis
parseAxis(const Json &obj, const std::string &where)
{
    needObject(obj, where);
    rejectUnknownMembers(obj, where, {"name", "values"});
    SpecAxis axis;
    const Json *name = obj.find("name");
    if (!name)
        specError(where, "axis needs a \"name\"");
    axis.name = needString(*name, where + ".name");
    const Json *values = obj.find("values");
    if (!values)
        specError(where, "axis needs a \"values\" array");
    needArray(*values, where + ".values");
    if (values->size() == 0)
        specError(where + ".values", "axis has no values");
    for (std::size_t i = 0; i < values->items().size(); ++i) {
        const std::string vw =
            where + ".values[" + std::to_string(i) + "]";
        const Json &vj = values->items()[i];
        needObject(vj, vw);
        rejectUnknownMembers(vj, vw, {"tag", "config", "spec"});
        SpecAxisValue val;
        const Json *tag = vj.find("tag");
        if (!tag)
            specError(vw, "axis value needs a \"tag\"");
        val.tag = needString(*tag, vw + ".tag");
        if (const Json *cfg = vj.find("config"))
            val.config = parseOverrides(*cfg, vw + ".config");
        if (const Json *spec = vj.find("spec"))
            val.window = parseWindow(*spec, vw + ".spec");
        axis.values.push_back(std::move(val));
    }
    return axis;
}

/**
 * The axis-value index per axis for every combination of @p g, in
 * expansion order: first axis outermost (the odometer counts the
 * LAST axis fastest); zip mode advances every axis together.
 */
std::vector<std::vector<std::size_t>>
axisPicks(const SpecGroup &g)
{
    std::size_t combos = 1;
    if (g.zip && !g.axes.empty()) {
        combos = g.axes.front().values.size();
    } else {
        for (const SpecAxis &axis : g.axes)
            combos *= axis.values.size();
    }
    std::vector<std::vector<std::size_t>> picks;
    for (std::size_t c = 0; c < combos; ++c) {
        std::vector<std::size_t> pick(g.axes.size(), 0);
        std::size_t rem = c;
        for (std::size_t a = g.axes.size(); a-- > 0;) {
            if (g.zip) {
                pick[a] = c;
            } else {
                pick[a] = rem % g.axes[a].values.size();
                rem /= g.axes[a].values.size();
            }
        }
        picks.push_back(std::move(pick));
    }
    return picks;
}

/** A variant's cell name: its name plus "@tag" per non-empty tag. */
std::string
taggedName(const SpecGroup &g, const SpecVariant &v,
           const std::vector<std::size_t> &pick)
{
    std::string name = v.name;
    for (std::size_t a = 0; a < g.axes.size(); ++a) {
        const std::string &tag = g.axes[a].values[pick[a]].tag;
        if (!tag.empty())
            name += "@" + tag;
    }
    return name;
}

/** Every expanded variant name of @p groups (axis tags appended), in
 *  expansion order, without duplicates. */
std::vector<std::string>
variantNames(const std::vector<SpecGroup> &groups)
{
    std::vector<std::string> out;
    for (const SpecGroup &g : groups) {
        for (const auto &pick : axisPicks(g)) {
            for (const SpecVariant &v : g.variants) {
                std::string name = taggedName(g, v, pick);
                if (std::find(out.begin(), out.end(), name) ==
                    out.end())
                    out.push_back(std::move(name));
            }
        }
    }
    return out;
}

/** The number at dotted @p path inside artifact run @p row, or
 *  nullptr when the path names no numeric member. */
const Json *
findMetric(const Json &row, const std::string &path)
{
    const Json *node = &row;
    std::size_t start = 0;
    for (;;) {
        if (node->type() != Json::Type::Object)
            return nullptr;
        const std::size_t dot = path.find('.', start);
        node = node->find(path.substr(
            start, dot == std::string::npos ? dot : dot - start));
        if (node == nullptr || dot == std::string::npos)
            break;
        start = dot + 1;
    }
    if (node == nullptr || (node->type() != Json::Type::Int &&
                            node->type() != Json::Type::Uint &&
                            node->type() != Json::Type::Double))
        return nullptr;
    return node;
}

/** A metric path valid in every run row: it must resolve in the row
 *  of a default outcome, which carries every core/energy member. */
const std::string &
needMetric(const Json &v, const std::string &where)
{
    const std::string &path = needString(v, where);
    if (findMetric(toJson(SweepOutcome{}), path) == nullptr)
        specError(where, "unknown metric '" + path +
                             "' (want a numeric run-row member, "
                             "e.g. core.ipc)");
    return path;
}

const std::string &
needVariant(const Json &v, const std::string &where,
            const std::vector<std::string> &variants)
{
    const std::string &name = needString(v, where);
    if (std::find(variants.begin(), variants.end(), name) ==
        variants.end())
        specError(where, "unknown variant '" + name + "'");
    return name;
}

SpecDerived
parseDerived(const Json &obj, const std::string &where,
             const std::vector<std::string> &variants)
{
    needObject(obj, where);
    rejectUnknownMembers(obj, where,
                         {"name", "metric", "variant", "relative_to",
                          "agg", "filter"});
    auto required = [&](const char *member) -> const Json & {
        const Json *v = obj.find(member);
        if (!v)
            specError(where, std::string("derived member needs a \"") +
                                 member + "\"");
        return *v;
    };
    SpecDerived d;
    d.name = needString(required("name"), where + ".name");
    if (d.name.empty())
        specError(where + ".name", "name must be non-empty");
    d.metric = needMetric(required("metric"), where + ".metric");
    d.variant = needVariant(required("variant"), where + ".variant",
                            variants);
    if (const Json *rel = obj.find("relative_to"))
        d.relativeTo =
            needVariant(*rel, where + ".relative_to", variants);
    const std::string &agg =
        needString(required("agg"), where + ".agg");
    if (agg == "geomean")
        d.agg = SpecDerived::Agg::Geomean;
    else if (agg == "mean")
        d.agg = SpecDerived::Agg::Mean;
    else
        specError(where + ".agg",
                  "unknown agg '" + agg + "' (want geomean or mean)");
    if (const Json *filter = obj.find("filter")) {
        const std::string fw = where + ".filter";
        needObject(*filter, fw);
        rejectUnknownMembers(*filter, fw, {"variant", "metric", "gt"});
        const Json *fv = filter->find("variant");
        const Json *fm = filter->find("metric");
        const Json *gt = filter->find("gt");
        if (!fv || !fm || !gt)
            specError(fw, "filter needs \"variant\", \"metric\" and "
                          "\"gt\"");
        d.filterVariant = needVariant(*fv, fw + ".variant", variants);
        d.filterMetric = needMetric(*fm, fw + ".metric");
        d.filterGt = needNumber(*gt, fw + ".gt");
    }
    return d;
}

} // namespace

SpecGroup &
SweepSpec::group(std::vector<std::string> workloads)
{
    const auto &all = workloads::allWorkloadNames();
    std::vector<std::string> resolved;
    auto appendUnique = [&resolved](const std::string &name) {
        if (std::find(resolved.begin(), resolved.end(), name) ==
            resolved.end())
            resolved.push_back(name);
    };
    const std::string where =
        "groups[" + std::to_string(groups_.size()) + "].workloads";
    for (const auto &entry : workloads) {
        if (entry == "*") {
            for (const auto &name : all)
                appendUnique(name);
            continue;
        }
        if (!entry.empty() && entry[0] == '@') {
            const std::string setName = entry.substr(1);
            bool found = false;
            for (const auto &[sn, members] : workloadSets_) {
                if (sn != setName)
                    continue;
                for (const auto &name : members)
                    appendUnique(name);
                found = true;
                break;
            }
            if (!found)
                specError(where,
                          "unknown workload set '" + setName + "'");
            continue;
        }
        if (std::find(all.begin(), all.end(), entry) == all.end())
            specError(where, "unknown workload '" + entry + "'");
        appendUnique(entry);
    }
    if (resolved.empty())
        specError(where, "group names no workloads");
    groups_.push_back({std::move(resolved), {}, false, {}, {}});
    return groups_.back();
}

SweepSpec
SweepSpec::fromJson(const Json &doc, const std::string &where)
{
    needObject(doc, where);
    rejectUnknownMembers(doc, where,
                         {"sweep", "schema_version", "defaults",
                          "workload_sets", "groups", "derived"});
    const Json *name = doc.find("sweep");
    if (!name)
        specError(where, "spec needs a \"sweep\" name");
    const Json *version = doc.find("schema_version");
    if (!version)
        specError(where, "spec needs a \"schema_version\"");
    if (needUint(*version, where + ".schema_version") != 1)
        specError(where + ".schema_version",
                  "unsupported schema version (want 1)");

    SweepSpec spec(needString(*name, where + ".sweep"));

    if (const Json *defaults = doc.find("defaults"))
        parseWindow(*defaults, where + ".defaults")
            .applyTo(spec.defaults_);

    if (const Json *sets = doc.find("workload_sets")) {
        needObject(*sets, where + ".workload_sets");
        for (const auto &[setName, list] : sets->members()) {
            const std::string sw =
                where + ".workload_sets." + setName;
            needArray(list, sw);
            std::vector<std::string> names;
            for (std::size_t i = 0; i < list.items().size(); ++i)
                names.push_back(needString(
                    list.items()[i],
                    sw + "[" + std::to_string(i) + "]"));
            spec.workloadSets_.emplace_back(setName, std::move(names));
        }
    }

    const Json *groups = doc.find("groups");
    if (!groups)
        specError(where, "spec needs a \"groups\" array");
    needArray(*groups, where + ".groups");
    if (groups->size() == 0)
        specError(where + ".groups", "spec has no groups");

    for (std::size_t gi = 0; gi < groups->items().size(); ++gi) {
        const std::string gw =
            where + ".groups[" + std::to_string(gi) + "]";
        const Json &gj = groups->items()[gi];
        needObject(gj, gw);
        rejectUnknownMembers(
            gj, gw, {"workloads", "axes", "zip", "spec", "variants"});

        const Json *wl = gj.find("workloads");
        if (!wl)
            specError(gw, "group needs a \"workloads\" array");
        needArray(*wl, gw + ".workloads");
        std::vector<std::string> names;
        for (std::size_t i = 0; i < wl->items().size(); ++i)
            names.push_back(
                needString(wl->items()[i],
                           gw + ".workloads[" + std::to_string(i) +
                               "]"));
        // group() validates names/sets and reports as groups[gi]; it
        // throws with a path relative to the spec root, so prefix the
        // file for parity with the other messages here.
        SpecGroup *g = nullptr;
        try {
            g = &spec.group(std::move(names));
        } catch (const std::runtime_error &e) {
            throw std::runtime_error(where + ": " +
                                     std::string(e.what()));
        }

        if (const Json *zip = gj.find("zip"))
            g->zip = needBool(*zip, gw + ".zip");
        if (const Json *sw = gj.find("spec"))
            g->window = parseWindow(*sw, gw + ".spec");
        if (const Json *axes = gj.find("axes")) {
            needArray(*axes, gw + ".axes");
            for (std::size_t ai = 0; ai < axes->items().size(); ++ai)
                g->axes.push_back(parseAxis(
                    axes->items()[ai],
                    gw + ".axes[" + std::to_string(ai) + "]"));
        }

        const Json *variants = gj.find("variants");
        if (!variants)
            specError(gw, "group needs a \"variants\" array");
        needArray(*variants, gw + ".variants");
        if (variants->size() == 0)
            specError(gw + ".variants", "group has no variants");
        for (std::size_t vi = 0; vi < variants->items().size(); ++vi)
            g->variants.push_back(parseVariant(
                variants->items()[vi],
                gw + ".variants[" + std::to_string(vi) + "]"));

        if (g->zip && !g->axes.empty()) {
            const std::size_t n = g->axes.front().values.size();
            for (const SpecAxis &axis : g->axes) {
                if (axis.values.size() != n)
                    specError(gw + ".axes",
                              "zipped axes have unequal lengths");
            }
        }
    }

    if (const Json *derived = doc.find("derived")) {
        needArray(*derived, where + ".derived");
        const std::vector<std::string> variants =
            variantNames(spec.groups_);
        for (std::size_t di = 0; di < derived->items().size(); ++di) {
            const std::string dw =
                where + ".derived[" + std::to_string(di) + "]";
            SpecDerived d =
                parseDerived(derived->items()[di], dw, variants);
            for (const SpecDerived &prev : spec.derived_) {
                if (prev.name == d.name)
                    specError(dw + ".name",
                              "duplicate derived name '" + d.name +
                                  "'");
            }
            spec.derived_.push_back(std::move(d));
        }
    }
    return spec;
}

SweepSpec
SweepSpec::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error(path + ": cannot read spec file");
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    Json doc = Json::parse(buf.str(), &error);
    if (doc.isNull())
        throw std::runtime_error(path + ": " + error);
    return fromJson(doc, path);
}

std::vector<std::string>
SweepSpec::workloadUnion() const
{
    std::vector<std::string> out;
    for (const SpecGroup &g : groups_) {
        for (const auto &name : g.workloads) {
            if (std::find(out.begin(), out.end(), name) == out.end())
                out.push_back(name);
        }
    }
    return out;
}

std::vector<SweepCell>
SweepSpec::expand(const ooo::CoreConfig &base,
                  const std::vector<std::string> &filter) const
{
    std::vector<SweepCell> cells;
    std::set<std::string> seen;

    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        const SpecGroup &g = groups_[gi];
        const std::string gw =
            name_ + ": groups[" + std::to_string(gi) + "]";

        // --workloads semantics: restrict to the filter, in FILTER
        // order (the user's order). Groups whose workloads are all
        // filtered out contribute nothing.
        std::vector<std::string> effective;
        if (filter.empty()) {
            effective = g.workloads;
        } else {
            for (const auto &want : filter) {
                if (std::find(g.workloads.begin(), g.workloads.end(),
                              want) != g.workloads.end())
                    effective.push_back(want);
            }
        }

        for (const auto &pick : axisPicks(g)) {
            for (const auto &workload : effective) {
                for (std::size_t vi = 0; vi < g.variants.size();
                     ++vi) {
                    const SpecVariant &v = g.variants[vi];
                    const std::string vw =
                        gw + ".variants[" + std::to_string(vi) + "]";

                    SweepCell cell;
                    cell.workload = workload;
                    cell.mode = v.mode;
                    cell.config = base;
                    cell.spec = defaults_;
                    g.window.applyTo(cell.spec);

                    for (std::size_t a = 0; a < g.axes.size(); ++a) {
                        const SpecAxisValue &val =
                            g.axes[a].values[pick[a]];
                        for (const SpecOverride &o : val.config)
                            applyConfigOverride(
                                cell.config, o.key, o.value,
                                gw + ".axes[" + std::to_string(a) +
                                    "].config." + o.key);
                        val.window.applyTo(cell.spec);
                    }
                    for (const SpecOverride &o : v.config)
                        applyConfigOverride(cell.config, o.key,
                                            o.value,
                                            vw + ".config." + o.key);
                    v.window.applyTo(cell.spec);

                    cell.variant = taggedName(g, v, pick);
                    cell.config.mode = cell.mode;

                    const std::string id =
                        cell.workload + "/" + cell.variant;
                    if (!seen.insert(id).second)
                        specError(vw, "duplicate cell " + id);
                    cells.push_back(std::move(cell));
                }
            }
        }
    }
    return cells;
}

std::vector<DerivedValue>
SweepSpec::evaluateDerived(
    const std::vector<SweepOutcome> &outcomes) const
{
    std::map<std::pair<std::string, std::string>, std::size_t> index;
    std::vector<Json> rows(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].skipped)
            continue;
        index[{outcomes[i].cell.workload, outcomes[i].cell.variant}] =
            i;
        rows[i] = toJson(outcomes[i]);
    }

    // One cell's metric: Absent when the cell is not in this run (a
    // skipped shard cell), Failed when it cannot feed an aggregate.
    enum class Read { Absent, Failed, Ok };
    auto read = [&](const std::string &workload,
                    const std::string &variant,
                    const std::string &metric, double &value) {
        const auto it = index.find({workload, variant});
        if (it == index.end())
            return Read::Absent;
        if (outcomes[it->second].failed())
            return Read::Failed;
        value = findMetric(rows[it->second], metric)->asNumber();
        return Read::Ok;
    };

    std::vector<DerivedValue> out;
    for (const SpecDerived &d : derived_) {
        DerivedValue dv;
        dv.name = d.name;
        std::vector<double> values;
        for (const SweepOutcome &o : outcomes) {
            if (o.skipped || o.cell.variant != d.variant)
                continue;
            const std::string &workload = o.cell.workload;
            Read got = Read::Ok;
            if (!d.filterVariant.empty()) {
                double gate = 0.0;
                got = read(workload, d.filterVariant, d.filterMetric,
                           gate);
                if (got == Read::Ok && !(gate > d.filterGt))
                    continue;
            }
            double value = 0.0;
            double divisor = 1.0;
            if (got == Read::Ok)
                got = read(workload, d.variant, d.metric, value);
            if (got == Read::Ok && !d.relativeTo.empty())
                got = read(workload, d.relativeTo, d.metric, divisor);
            if (got == Read::Absent)
                continue;
            if (got == Read::Failed || !(divisor > 0.0)) {
                ++dv.excluded;
                continue;
            }
            values.push_back(d.relativeTo.empty() ? value
                                                  : value / divisor);
        }

        std::size_t usable = values.size();
        if (d.agg == SpecDerived::Agg::Geomean) {
            std::size_t nonPositive = 0;
            dv.value = geomeanPositive(values, &nonPositive);
            dv.excluded += nonPositive;
            usable -= nonPositive;
        } else {
            double sum = 0.0;
            for (double v : values)
                sum += v;
            dv.value = sum / static_cast<double>(usable);
        }
        if (usable == 0)
            dv.value = std::numeric_limits<double>::quiet_NaN();
        out.push_back(std::move(dv));
    }
    return out;
}

} // namespace cdfsim::sim
