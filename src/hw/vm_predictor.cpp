#include "hw/vm_predictor.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "hw/predictor_program.hpp"

namespace shep {

namespace {

/// Validation that must run BEFORE the init list sizes the history matrix
/// and the VM data memory from the parameters.
std::size_t ValidatedDays(const WcmaParams& params) {
  params.Validate();
  return static_cast<std::size_t>(params.days);
}

std::size_t CheckedSlots(int slots_per_day) {
  SHEP_REQUIRE(slots_per_day >= 2, "need at least two slots per day");
  return static_cast<std::size_t>(slots_per_day);
}

WcmaProgramLayout FullLayout(const WcmaParams& params) {
  WcmaProgramLayout layout;
  layout.slots_k = params.slots_k;
  layout.alpha = params.alpha;
  return layout;
}

}  // namespace

VmWcmaPredictor::VmWcmaPredictor(const WcmaParams& params, int slots_per_day,
                                 const CycleCosts& costs)
    : params_(params),
      slots_per_day_(slots_per_day),
      costs_(costs),
      history_(ValidatedDays(params), CheckedSlots(slots_per_day)),
      recent_(static_cast<std::size_t>(params.slots_k)),
      vm_(FullLayout(params).memory_words(), costs) {
  costs_.Validate();
  SHEP_REQUIRE(params_.slots_k < slots_per_day_,
               "K must be smaller than the number of slots per day");
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
  programs_.reserve(static_cast<std::size_t>(params_.slots_k));
  for (int k = 1; k <= params_.slots_k; ++k) {
    WcmaProgramLayout layout;
    layout.slots_k = k;
    layout.alpha = params_.alpha;
    programs_.push_back(BuildWcmaPredictProgram(layout));
  }
}

void VmWcmaPredictor::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  // Identical host bookkeeping to core/wcma.cpp: record the μ the routine
  // should condition this sample against as seen now, before today enters
  // the matrix.
  double mu = boundary_sample;  // neutral when no history yet (η = 1)
  if (history_.stored_days() > 0) mu = history_.Mu(next_slot_);
  recent_.Push(RecentSlot{boundary_sample, mu});

  current_day_[next_slot_] = boundary_sample;
  last_sample_ = boundary_sample;
  has_sample_ = true;

  ++next_slot_;
  if (next_slot_ == static_cast<std::size_t>(slots_per_day_)) {
    history_.PushDay(current_day_);
    next_slot_ = 0;
  }
}

double VmWcmaPredictor::PredictNext() const {
  SHEP_REQUIRE(has_sample_, "PredictNext before any Observe");
  ++predict_calls_;

  if (history_.stored_days() == 0) {
    // Boot transient: no μ_D exists, the conditioned term degenerates to
    // persistence.  Runs on the host (zero cycles charged) with the exact
    // expression of core/wcma.cpp so the two backends stay bit-comparable.
    last_cycles_ = 0.0;
    return params_.alpha * last_sample_ +
           (1.0 - params_.alpha) * last_sample_;
  }

  const std::size_t k_avail = recent_.size();
  SHEP_DCHECK(k_avail >= 1, "recent window empty despite a sample");
  WcmaProgramLayout layout;
  layout.slots_k = static_cast<int>(k_avail);
  layout.alpha = params_.alpha;

  vm_.Poke(WcmaProgramLayout::kAddrSample, last_sample_);
  vm_.Poke(WcmaProgramLayout::kAddrMuNext, history_.Mu(next_slot_));
  vm_.Poke(WcmaProgramLayout::kAddrEpsilon, kNightEpsilonW);
  for (std::size_t i = 0; i < k_avail; ++i) {
    vm_.Poke(WcmaProgramLayout::kAddrRecentBase + i, recent_[i].sample);
    vm_.Poke(layout.recent_mu_base() + i, recent_[i].mu);
    vm_.Poke(layout.theta_base() + i,
             static_cast<double>(i + 1) / static_cast<double>(k_avail));
  }

  const VmResult run = vm_.Run(programs_[k_avail - 1]);
  SHEP_CHECK(run.ok, "WCMA VM routine trapped: " + run.trap);
  ++vm_runs_;
  last_cycles_ = run.cycles;
  total_cycles_ += run.cycles;
  total_ops_ += run.ops;
  return vm_.Peek(WcmaProgramLayout::kAddrOutput);
}

bool VmWcmaPredictor::Ready() const { return history_.full(); }

void VmWcmaPredictor::Reset() {
  history_.Clear();
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
  next_slot_ = 0;
  last_sample_ = 0.0;
  has_sample_ = false;
  recent_.Clear();
  total_cycles_ = 0.0;
  last_cycles_ = 0.0;
  total_ops_ = OpCounts{};
  predict_calls_ = 0;
  vm_runs_ = 0;
}

std::string VmWcmaPredictor::Name() const {
  std::ostringstream os;
  os << "VmWCMA(a=" << params_.alpha << ",D=" << params_.days
     << ",K=" << params_.slots_k << ")";
  return os.str();
}

PredictorComputeCost VmWcmaPredictor::ComputeCost() const {
  PredictorComputeCost cost;
  cost.cycles = total_cycles_;
  cost.ops = total_ops_.total();
  cost.predictions = predict_calls_;
  return cost;
}

}  // namespace shep
