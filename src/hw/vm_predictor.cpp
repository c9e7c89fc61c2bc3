#include "hw/vm_predictor.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "hw/predictor_program.hpp"

namespace shep {

namespace {

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
      costs_(costs),
      window_(params.days, slots_per_day, params.slots_k),
      vm_(FullLayout(params).memory_words(), costs) {
  params_.Validate();
  costs_.Validate();
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
  window_.Observe(boundary_sample);
}

double VmWcmaPredictor::PredictNext() const {
  const HistoryMatrix& history = window_.history();
  SHEP_REQUIRE(history.has_sample(), "PredictNext before any Observe");
  ++predict_calls_;

  const double last = history.last_sample();
  if (history.stored_days() == 0) {
    // Boot transient: no μ_D exists, the conditioned term degenerates to
    // persistence.  Runs on the host (zero cycles charged) with the exact
    // expression of core/wcma.cpp so the two backends stay bit-comparable.
    last_cycles_ = 0.0;
    return params_.alpha * last + (1.0 - params_.alpha) * last;
  }

  const auto& recent = window_.recent();
  const std::size_t k_avail = recent.size();
  SHEP_DCHECK(k_avail >= 1, "recent window empty despite a sample");
  WcmaProgramLayout layout;
  layout.slots_k = static_cast<int>(k_avail);
  layout.alpha = params_.alpha;

  vm_.Poke(WcmaProgramLayout::kAddrSample, last);
  vm_.Poke(WcmaProgramLayout::kAddrMuNext, history.Mu(history.next_slot()));
  vm_.Poke(WcmaProgramLayout::kAddrEpsilon, kNightEpsilonW);
  for (std::size_t i = 0; i < k_avail; ++i) {
    vm_.Poke(WcmaProgramLayout::kAddrRecentBase + i, recent[i].sample);
    vm_.Poke(layout.recent_mu_base() + i, recent[i].mu);
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

bool VmWcmaPredictor::Ready() const { return window_.history().full(); }

void VmWcmaPredictor::Reset() {
  window_.Clear();
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
