#include "sim/simulator.hh"

#include <cmath>

#include "common/logging.hh"

namespace cdfsim::sim
{

namespace
{

/** Build the shared pristine image for a workload (init applied). */
std::shared_ptr<const isa::MemoryImage>
makePristine(const workloads::Workload &workload)
{
    auto image = std::make_shared<isa::MemoryImage>();
    if (workload.init)
        workload.init(*image);
    return image;
}

} // namespace

Simulator::Simulator(const ooo::CoreConfig &config,
                     workloads::Workload workload)
    : Simulator(config,
                std::make_shared<const workloads::Workload>(
                    std::move(workload)),
                nullptr)
{
}

Simulator::Simulator(
    const ooo::CoreConfig &config,
    std::shared_ptr<const workloads::Workload> workload,
    std::shared_ptr<const isa::MemoryImage> pristine)
    : config_(config), workload_(std::move(workload)),
      pristine_(pristine ? std::move(pristine)
                         : makePristine(*workload_)),
      memory_(*pristine_) // COW: copies the page table, not pages
{
    core_ = std::make_unique<ooo::Core>(config_, workload_->program,
                                        memory_, stats_);
}

Simulator::~Simulator() = default;

namespace
{

/** now + budget, saturating at kNeverCycle. */
Cycle
phaseDeadline(Cycle now, Cycle budget)
{
    return budget >= kNeverCycle - now ? kNeverCycle : now + budget;
}

} // namespace

RunResult
Simulator::run(const RunSpec &spec)
{
    return measure(spec, warmup(spec));
}

bool
Simulator::warmup(const RunSpec &spec)
{
    // Warmup: caches, predictors and (for CDF/PRE) the criticality
    // tables and uop cache train here, mirroring the paper's
    // 200M-instruction warmup at reduced scale. The cycle budget is
    // relative to the phase start so warmup cycles never eat the
    // measurement budget (and re-running an already-advanced
    // Simulator keeps working).
    if (spec.warmupInstrs == 0)
        return false;
    const std::uint64_t target = core_->retired() + spec.warmupInstrs;
    core_->run(target, phaseDeadline(core_->cycle(), spec.maxCycles));
    return !core_->halted() && core_->retired() < target;
}

RunResult
Simulator::measure(const RunSpec &spec, bool warmupTruncated)
{
    RunResult r;
    r.warmupTruncated = warmupTruncated;
    core_->resetMeasurement();

    const std::uint64_t target = core_->retired() + spec.measureInstrs;
    core_->run(target, phaseDeadline(core_->cycle(), spec.maxCycles));
    r.halted = core_->halted();
    r.truncated = !r.halted && core_->retired() < target;
    r.workload = workload_->name;
    r.mode = config_.mode;
    r.core = core_->result();
    r.energy = energy::Model::evaluate(config_, stats_,
                                       r.core.cycles);
    r.stats = stats_;
    r.profile = core_->profile();
    r.skippedCycles = core_->skippedCycles();
    r.skipEvents = core_->skipEvents();
    return r;
}

template <typename Ar>
void
Simulator::fields(Ar &ar)
{
    // Stats first: every counter by name, so a restored registry has
    // exactly the key set of the warmed one (counters created lazily
    // during warmup included — a fresh same-config registry might
    // not have allocated them yet). Restore writes through
    // counter(name): components hold references into the registry.
    std::uint64_t n = stats_.all().size();
    ar(n);
    if constexpr (Ar::kLoading) {
        stats_.resetAll();
        while (n-- > 0) {
            std::string name;
            ar(name);
            ar(stats_.counter(name));
        }
        memory_.restoreDelta(ar, *pristine_);
    } else {
        for (const auto &[name, value] : stats_.all())
            ar(name, value);
        memory_.saveDelta(ar, *pristine_);
    }
    ar(*core_);
}

void
Simulator::saveState(SnapWriter &w) const
{
    w(*this);
}

void
Simulator::restoreState(SnapReader &r)
{
    r(*this);
    SIM_ASSERT(r.done(), "snapshot payload has ",
               r.size() - r.pos(), " trailing byte(s) after restore");
}

const char *
RunResult::status() const
{
    if (halted)
        return "halted";
    if (warmupTruncated)
        return "warmup_truncated";
    if (truncated)
        return "truncated";
    return "ok";
}

RunResult
runWorkload(const std::string &workloadName, ooo::CoreMode mode,
            const RunSpec &spec, const ooo::CoreConfig &base)
{
    ooo::CoreConfig config = base;
    config.mode = mode;
    Simulator sim(config, workloads::makeWorkload(workloadName));
    return sim.run(spec);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values) {
        SIM_ASSERT(v > 0.0, "geomean needs positive values");
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
geomeanPositive(const std::vector<double> &values,
                std::size_t *excluded)
{
    std::vector<double> kept;
    kept.reserve(values.size());
    for (double v : values) {
        if (v > 0.0)
            kept.push_back(v);
    }
    if (excluded)
        *excluded = values.size() - kept.size();
    return geomean(kept);
}

} // namespace cdfsim::sim
