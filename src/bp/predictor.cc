#include "bp/predictor.hh"

#include "common/logging.hh"

namespace cdfsim::bp
{

BranchPredictor::BranchPredictor(const PredictorConfig &config,
                                 StatRegistry &stats)
    : tage_(config.tage, stats),
      btb_(config.btbEntries, stats),
      ras_(config.rasDepth),
      condPredictions_(stats.counter("bp.cond_predictions")),
      rasPredictions_(stats.counter("bp.ras_predictions"))
{
}

BpCheckpoint
BranchPredictor::checkpoint() const
{
    BpCheckpoint c;
    checkpointInto(c);
    return c;
}

void
BranchPredictor::checkpointInto(BpCheckpoint &ckpt) const
{
    tage_.checkpointInto(ckpt.tage);
    ckpt.ras = ras_.snapshot();
}

BranchPrediction
BranchPredictor::predict(Addr pc, const isa::Uop &uop)
{
    SIM_ASSERT(uop.isBranch(), "predict() on a non-branch uop");
    BranchPrediction pred;

    switch (uop.op) {
      case isa::Opcode::Jmp:
      case isa::Opcode::Call:
        pred.taken = true;
        pred.target = static_cast<Addr>(uop.imm);
        pred.btbMiss = !btb_.lookup(pc).has_value();
        if (uop.op == isa::Opcode::Call)
            ras_.push(pc + 1);
        break;

      case isa::Opcode::Ret:
        pred.taken = true;
        pred.target = ras_.pop();
        pred.btbMiss = false;
        ++rasPredictions_;
        break;

      default: { // conditional
        ++condPredictions_;
        pred.tageInfo = tage_.predict(pc);
        pred.taken = pred.tageInfo.taken;
        if (pred.taken) {
            auto target = btb_.lookup(pc);
            // Direct targets are available from the uop itself one
            // stage later; a BTB miss costs a fetch bubble but the
            // target is still correct.
            pred.target = target.value_or(static_cast<Addr>(uop.imm));
            pred.btbMiss = !target.has_value();
        } else {
            pred.target = pc + 1;
        }
        break;
      }
    }
    return pred;
}

void
BranchPredictor::update(Addr pc, const isa::Uop &uop, bool taken,
                        Addr target, const TagePredictionInfo &info)
{
    if (uop.isCondBranch())
        tage_.update(pc, taken, info);
    if (taken)
        btb_.update(pc, target);
}

void
BranchPredictor::recover(const BpCheckpoint &ckpt, bool actualTaken,
                          Addr pc)
{
    tage_.recover(ckpt.tage, actualTaken, pc);
    ras_.restore(ckpt.ras);
}

void
BranchPredictor::restore(const BpCheckpoint &ckpt)
{
    tage_.restore(ckpt.tage);
    ras_.restore(ckpt.ras);
}

} // namespace cdfsim::bp
