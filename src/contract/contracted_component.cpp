#include "contract/contracted_component.hpp"

#include <stdexcept>

namespace aft::contract {

ContractedComponent::ContractedComponent(std::string id,
                                         std::shared_ptr<arch::Component> inner,
                                         Precondition pre, Postcondition post,
                                         Invariant invariant)
    : Component(std::move(id)),
      inner_(std::move(inner)),
      pre_(std::move(pre)),
      post_(std::move(post)),
      invariant_(std::move(invariant)) {
  if (!inner_) throw std::invalid_argument("ContractedComponent: null inner");
  // Absent clauses default to "always true" so callers can contract only
  // the boundary they care about.
  if (!pre_) pre_ = [](std::int64_t) { return true; };
  if (!post_) post_ = [](std::int64_t, std::int64_t) { return true; };
  if (!invariant_) invariant_ = [] { return true; };
}

arch::Component::Result ContractedComponent::process(std::int64_t input) {
  if (!pre_(input)) {
    ++pre_violations_;
    return account(Result{false, 0});
  }
  const Result r = inner_->process(input);
  if (!r.ok) return account(r);

  bool violated = false;
  if (!post_(input, r.value)) {
    ++post_violations_;
    violated = true;
  }
  if (!invariant_()) {
    ++inv_violations_;
    violated = true;
  }
  return account(violated ? Result{false, 0} : r);
}

}  // namespace aft::contract
