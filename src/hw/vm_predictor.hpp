// vm_predictor.hpp — WCMA deployed as the compiled MicroVm routine.
//
// VmWcmaPredictor closes the gap between the hw layer's per-call
// cross-checks (predictor_program) and a full deployment: it implements the
// streaming Predictor contract, but every steady-state PredictNext()
// actually EXECUTES the compiled WCMA routine on the cycle-counted MicroVm
// instead of evaluating Eq. 1 in C++.  The host side plays the part of the
// firmware around the routine — it keeps the same WcmaWindow as core/Wcma
// (D×N history matrix and K-slot recent window), pokes the routine's
// inputs into VM data memory each wake-up, and reads the prediction back —
// while the arithmetic that the paper's Table IV prices runs instruction by
// instruction on the VM, accumulating exact cycle and operation counts.
//
// Because the routine performs the same double-precision operations in the
// same order as core/Wcma::PredictNext, the VM-backed predictions track the
// float reference to within FMA-contraction noise (ulps);
// tests/test_backend_parity.cpp pins that bound.
//
// Warm-up corners follow core/wcma.cpp: with fewer than K elapsed slots the
// routine compiled for the available window size runs (θ ramps over
// k_avail), and before any full day exists the prediction degenerates to
// persistence on the host with zero cycles charged — the VM models the
// deployed steady-state routine, not the boot transient.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "core/wcma.hpp"
#include "core/wcma_fixed.hpp"
#include "hw/mcu_spec.hpp"
#include "hw/vm.hpp"

namespace shep {

/// WCMA whose prediction arithmetic runs on the MicroVm, with per-call
/// cycle/op accounting.
class VmWcmaPredictor final : public Predictor, public ComputeCostReporter {
 public:
  VmWcmaPredictor(const WcmaParams& params, int slots_per_day,
                  const CycleCosts& costs = {});

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  bool Ready() const override;
  void Reset() override;
  std::string Name() const override;

  /// Cycle/op totals of every VM-executed prediction since Reset().
  PredictorComputeCost ComputeCost() const override;

  /// Cycles of the most recent PredictNext() (0 for the warm-up fallback).
  double last_cycles() const { return last_cycles_; }

  /// Dynamic op mix summed over all VM runs since Reset().
  const OpCounts& total_ops() const { return total_ops_; }

  std::uint64_t predict_calls() const { return predict_calls_; }
  /// PredictNext() calls that actually executed the routine on the VM.
  std::uint64_t vm_runs() const { return vm_runs_; }

  const WcmaParams& params() const { return params_; }

 private:
  WcmaParams params_;
  CycleCosts costs_;
  WcmaWindow window_;

  /// Routine compiled once per available window size (index k_avail - 1);
  /// warm-up runs the shorter-window builds, steady state programs_[K-1].
  std::vector<std::vector<Instr>> programs_;
  /// Sized for the K-slot layout (the largest); shorter-window layouts use
  /// a prefix of the same data memory.  mutable: PredictNext() is logically
  /// const but must poke inputs and run the machine.
  mutable MicroVm vm_;

  mutable double total_cycles_ = 0.0;
  mutable double last_cycles_ = 0.0;
  mutable OpCounts total_ops_;
  mutable std::uint64_t predict_calls_ = 0;
  mutable std::uint64_t vm_runs_ = 0;
};

}  // namespace shep
