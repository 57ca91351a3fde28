// Design by Contract at the component level (paper Sect. 4):
//
//   "A well-defined 'contract' formally specifies what are the obligations
//    and benefits of the two parties.  This is expressed in terms of
//    pre-conditions, post-conditions, and invariants.  Design by Contract
//    forces the designer to consider explicitly the mutual dependencies and
//    assumptions among correlated software components."
//
// ContractedComponent wraps any Component with executable pre/post
// conditions and an invariant.  A violation is an assumption failure made
// observable at the exact call boundary where the hypothesis is consumed,
// and the call fails there (fail-stop at the boundary).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "arch/component.hpp"

namespace aft::contract {

class ContractedComponent final : public arch::Component {
 public:
  using Precondition = std::function<bool(std::int64_t input)>;
  using Postcondition = std::function<bool(std::int64_t input, std::int64_t output)>;
  using Invariant = std::function<bool()>;

  ContractedComponent(std::string id, std::shared_ptr<arch::Component> inner,
                      Precondition pre, Postcondition post, Invariant invariant);

  Result process(std::int64_t input) override;

  [[nodiscard]] std::uint64_t precondition_violations() const noexcept {
    return pre_violations_;
  }
  [[nodiscard]] std::uint64_t postcondition_violations() const noexcept {
    return post_violations_;
  }
  [[nodiscard]] std::uint64_t invariant_violations() const noexcept {
    return inv_violations_;
  }

 private:
  std::shared_ptr<arch::Component> inner_;
  Precondition pre_;
  Postcondition post_;
  Invariant invariant_;
  std::uint64_t pre_violations_ = 0;
  std::uint64_t post_violations_ = 0;
  std::uint64_t inv_violations_ = 0;
};

}  // namespace aft::contract
