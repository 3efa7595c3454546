#include "ckpt/fault.hpp"

#include <algorithm>

namespace mpte::ckpt {

void FaultPlan::add_crash(std::size_t round, mpc::MachineId rank) {
  pending_.push_back(Crash{round, rank});
}

std::optional<mpc::MachineId> FaultPlan::take_crash(std::size_t round) {
  const auto it =
      std::find_if(pending_.begin(), pending_.end(),
                   [round](const Crash& c) { return c.round == round; });
  if (it == pending_.end()) return std::nullopt;
  const mpc::MachineId rank = it->rank;
  pending_.erase(it);
  return rank;
}

}  // namespace mpte::ckpt
