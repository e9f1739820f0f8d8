// Power management unit of the dual-channel node (Fig. 3).
//
// Each slot, the PMU routes solar power to the load through the
// high-efficiency direct channel first; any surplus charges the selected
// super capacitor through the input regulator; any deficit is pulled from
// the selected capacitor through the output regulator. If the deficit cannot
// be covered in full, the slot *browns out*: the NVPs checkpoint (their
// nonvolatile state makes this free) and no task progresses, while the whole
// slot's solar energy is banked instead.
#pragma once

#include "storage/cap_bank.hpp"

namespace solsched::storage {

/// Energy ledger of one resolved slot (all joules).
struct SlotFlow {
  double solar_in_j = 0.0;        ///< Harvested solar energy offered.
  double load_request_j = 0.0;    ///< Energy the scheduled tasks require.
  double direct_supplied_j = 0.0; ///< Load energy served by the direct channel.
  double cap_supplied_j = 0.0;    ///< Load energy served from the capacitor.
  double stored_j = 0.0;          ///< Energy added to the capacitor (post-loss).
  double migrated_in_j = 0.0;     ///< Source energy sent into the capacitor.
  double conversion_loss_j = 0.0; ///< Regulator + cycle losses this slot.
  double leakage_loss_j = 0.0;    ///< Bank-wide leakage this slot.
  double spilled_j = 0.0;         ///< Solar energy neither used nor stored.
  bool brownout = false;          ///< Load could not be fully powered.
};

/// PMU configuration.
struct PmuConfig {
  /// Direct channel (solar -> load) efficiency; the dual-channel design [11]
  /// exists precisely because this path beats the store-and-use round trip.
  double direct_eta = 0.92;
};

/// Resolves per-slot power flows over a capacitor bank.
class Pmu {
 public:
  explicit Pmu(PmuConfig config = {}) : config_(config) {}

  const PmuConfig& config() const noexcept { return config_; }

  /// Energy the load could consume this slot without browning out, given
  /// solar power `solar_w` and the selected capacitor's deliverable energy
  /// `cap_deliverable_j` (J).
  double supplyable_j(double solar_w, double cap_deliverable_j,
                      double dt_s) const {
    return solar_w * dt_s * config_.direct_eta + cap_deliverable_j;
  }
  /// Same, reading the deliverable energy off the bank's selected capacitor.
  double supplyable_j(double solar_w, const CapacitorBank& bank,
                      double dt_s) const {
    return supplyable_j(solar_w, bank.selected().deliverable_j(), dt_s);
  }

  /// Executes one slot: powers a load of `load_w` for dt_s seconds if
  /// possible (else brownout with zero load), charges/discharges the
  /// selected capacitor, and applies leakage to the whole bank.
  /// `cap_deliverable_j` must be bank.selected().deliverable_j() as of the
  /// call — a caller that already computed it for this slot passes it on.
  SlotFlow run_slot(double solar_w, double load_w, double cap_deliverable_j,
                    CapacitorBank& bank, double dt_s) const;
  /// Same, reading the deliverable energy off the bank.
  SlotFlow run_slot(double solar_w, double load_w, CapacitorBank& bank,
                    double dt_s) const {
    return run_slot(solar_w, load_w, bank.selected().deliverable_j(), bank,
                    dt_s);
  }

 private:
  PmuConfig config_;
};

}  // namespace solsched::storage
