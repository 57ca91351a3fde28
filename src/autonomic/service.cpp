#include "autonomic/service.hpp"

#include <stdexcept>

namespace aft::autonomic {
namespace {

constexpr std::size_t kInitialReplicas = 3;
constexpr const char* kAssumptionId = "dim.redundancy";
constexpr const char* kReplicasKey = "dim.redundancy.observed";

}  // namespace

AutonomicReplicationService::AutonomicReplicationService(Task task,
                                                         Options options,
                                                         core::Context* context)
    : context_(context),
      options_(options),
      task_(std::move(task)),
      organ_(kInitialReplicas,
             [this](vote::Ballot input, std::size_t slot) {
               return task_(input, unit_of_slot_[slot]);
             },
             options.policy, options.shared_key,
             options.retire_faulty_units
                 ? RestoringOrgan::Discrimination::kOn
                 : RestoringOrgan::Discrimination::kOff),
      estimator_(DisturbanceEstimator::Params{}, context),
      assumption_(
          kAssumptionId, "Degree of employed redundancy is r",
          core::Subject::kExecutionEnvironment,
          core::Provenance{.origin = "AutonomicReplicationService",
                           .rationale =
                               "initial dimensioning; autonomically revised "
                               "on every switchboard resize",
                           .stated_at = core::BindingTime::kRun},
          static_cast<std::int64_t>(organ_.farm().replicas()), kReplicasKey) {
  if (!task_) throw std::invalid_argument("AutonomicReplicationService: null task");
  ensure_slot_units(organ_.farm().replicas());

  // Every authenticated resize re-binds the dimensioning assumption: the
  // hypothesis is kept in lockstep with reality by construction.
  organ_.switchboard().set_resize_hook([this](std::size_t replicas, bool) {
    ensure_slot_units(replicas);
    assumption_.rebind(static_cast<std::int64_t>(replicas));
    if (context_ != nullptr) {
      context_->set(kReplicasKey, static_cast<std::int64_t>(replicas));
    }
  });
  if (context_ != nullptr) {
    context_->set(kReplicasKey,
                  static_cast<std::int64_t>(organ_.farm().replicas()));
  }
}

void AutonomicReplicationService::ensure_slot_units(std::size_t n) {
  while (unit_of_slot_.size() < n) {
    unit_of_slot_.push_back(next_unit_++);
  }
}

std::size_t AutonomicReplicationService::unit_of_slot(std::size_t slot) const {
  if (slot >= unit_of_slot_.size()) {
    throw std::out_of_range("AutonomicReplicationService: slot index");
  }
  return unit_of_slot_[slot];
}

std::optional<vote::Ballot> AutonomicReplicationService::call(vote::Ballot input) {
  last_report_ = organ_.round(
      input, unit_of_slot_,
      [this](const vote::RoundReport& report) { estimator_.observe(report); });

  if (options_.retire_faulty_units) {
    for (std::size_t slot = 0; slot < organ_.units_seen(); ++slot) {
      // The oracle discriminated this slot's unit as permanently or
      // intermittently faulty: a spare unit takes the slot, with no
      // history of its own.
      if (organ_.suspect(unit_of_slot_[slot])) {
        unit_of_slot_[slot] = next_unit_++;
        ++units_replaced_;
      }
    }
  }

  if (!last_report_.success) return std::nullopt;
  return last_report_.value;
}

}  // namespace aft::autonomic
