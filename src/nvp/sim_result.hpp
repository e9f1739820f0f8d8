// Simulation records and aggregate metrics.
#pragma once

#include <cstddef>
#include <vector>

namespace solsched::nvp {

/// Ledger of one period.
struct PeriodRecord {
  std::size_t day = 0;
  std::size_t period = 0;
  double dmr = 0.0;                ///< Deadline miss rate of this period.
  std::size_t misses = 0;
  std::size_t completions = 0;
  std::size_t brownout_slots = 0;
  std::size_t cap_index = 0;       ///< Capacitor selected during the period.
  double solar_in_j = 0.0;
  double load_served_j = 0.0;      ///< direct + capacitor supplied energy.
  double stored_j = 0.0;           ///< Energy banked this period.
  double migrated_in_j = 0.0;      ///< Source energy sent into the capacitor.
  double cap_supplied_j = 0.0;     ///< Load energy served from storage.
  double conversion_loss_j = 0.0;
  double leakage_loss_j = 0.0;
  double spilled_j = 0.0;

  // -- fault-injection ledger (DESIGN.md §11). All zero without a plan. -----
  std::size_t power_failures = 0;       ///< Blackout entries this period.
  std::size_t power_failure_slots = 0;  ///< Slots spent fully dark.
  std::size_t backups = 0;              ///< NVP checkpoints written.
  std::size_t restores = 0;             ///< Recoveries (NVP replay or reboot).
  std::size_t fallbacks = 0;            ///< Policy degraded-mode periods.
  double backup_energy_j = 0.0;         ///< Energy drawn for checkpoints.
  double restore_energy_j = 0.0;        ///< Energy drawn for recoveries.
  double lost_progress_s = 0.0;         ///< Volatile baseline: wiped work.

  friend bool operator==(const PeriodRecord&, const PeriodRecord&) = default;
};

/// Full result of simulating one (benchmark, trace, policy) triple.
struct SimResult {
  std::vector<PeriodRecord> periods;
  double initial_bank_energy_j = 0.0;  ///< Bank energy before the first slot.
  double final_bank_energy_j = 0.0;    ///< Bank energy after the last slot.

  friend bool operator==(const SimResult&, const SimResult&) = default;

  /// Long-term DMR: mean of per-period DMRs (Eq. 6 with equal task counts).
  double overall_dmr() const;

  /// DMR restricted to one day.
  double day_dmr(std::size_t day) const;

  /// Energy utilization: load energy actually served / solar energy offered
  /// (the Fig. 9(b) metric — storage round trips and spills lower it).
  double energy_utilization() const;

  /// Fraction of migrated-in energy that later reached the load:
  /// cap_supplied / migrated_in (migration efficiency over the run).
  double migration_efficiency() const;

  double total_solar_j() const;
  double total_served_j() const;
  double total_loss_j() const;
  std::size_t total_brownouts() const;

  // Fault-ledger aggregates; all zero when no fault plan was attached.
  std::size_t total_power_failures() const;
  std::size_t total_power_failure_slots() const;
  std::size_t total_backups() const;
  std::size_t total_restores() const;
  std::size_t total_fallbacks() const;
  double total_lost_progress_s() const;
};

}  // namespace solsched::nvp
