// The Autoconf-like compile/deployment-time selector of Sect. 3.1.
//
// The paper's procedure, verbatim steps:
//   1. introspect the target platform's memory modules (SPD / lshw);
//   2. retrieve the most probable memory behaviour **f** from the
//      knowledge base;
//   3. isolate the access methods able to tolerate **f**;
//   4. order them by a cost function "proportional to the expenditure of
//      resources";
//   5. select the minimum element.
//
// The selector materialises the design-time alternatives f0..f4 / M0..M4 as
// data (a MethodCatalog), so the choice among them is *postponed* to the
// moment the software meets its actual platform — the paper's core idea —
// instead of being hardwired and hidden (the Hidden-Intelligence syndrome).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "mem/access_method.hpp"
#include "mem/knowledge_base.hpp"

namespace aft::mem {

/// Which fault modes a method can mask; the adequacy check is mode-wise.
struct ToleranceProfile {
  bool transient = false;
  bool stuck_at = false;
  bool sel = false;
  bool heavy_seu = false;

  /// True when this profile masks every mode `required` admits.
  [[nodiscard]] bool masks(const FaultModes& required) const noexcept {
    return (transient || !required.transient) && (stuck_at || !required.stuck_at) &&
           (sel || !required.sel) && (heavy_seu || !required.heavy_seu);
  }
};

/// Catalog entry: everything the selector needs to know about one method
/// without instantiating it.
struct MethodDescriptor {
  std::string name;
  MethodCost cost;
  ToleranceProfile tolerance;
  std::size_t devices_required = 1;
  /// Builds the method over `devices_required` distinct devices.
  std::function<std::unique_ptr<IMemoryAccessMethod>(
      const std::vector<hw::MemoryChip*>&)>
      build;
};

/// The standard M0..M4 catalog of Sect. 3.1.
[[nodiscard]] std::vector<MethodDescriptor> standard_catalog();

/// Outcome of an analysis run: the audit trail a deployment toolchain (or a
/// human) can inspect — the anti-Hidden-Intelligence artifact.
struct SelectionReport {
  struct BankFinding {
    std::string slot;
    std::string vendor;
    std::string model;
    std::string lot;
    FailureSemantics semantics = FailureSemantics::kF0Stable;
    std::string source;  ///< knowledge-base provenance of the judgment
  };

  std::vector<BankFinding> banks;
  FaultModes required{};         ///< union of all banks' admitted modes
  std::string required_label;    ///< human-readable form, e.g. "f3"
  std::vector<std::string> adequate;  ///< adequate method names, cheapest first
  std::string chosen;            ///< empty when no adequate method exists
  std::vector<std::string> log;  ///< step-by-step rationale

  [[nodiscard]] bool selected() const noexcept { return !chosen.empty(); }
};

class MethodSelector {
 public:
  MethodSelector(KnowledgeBase kb, std::vector<MethodDescriptor> catalog);

  /// Convenience: defaults knowledge base + standard catalog.
  MethodSelector();

  /// Steps 1-5 of the paper's procedure, without instantiating anything.
  [[nodiscard]] SelectionReport analyze(const hw::Machine& machine) const;

  /// Instantiates the chosen method over the machine's banks (first
  /// `devices_required` banks).  Throws std::runtime_error when the report
  /// selected nothing or the machine lacks enough banks.
  [[nodiscard]] std::unique_ptr<IMemoryAccessMethod> instantiate(
      hw::Machine& machine, const SelectionReport& report) const;

  /// analyze + instantiate in one call.
  struct Selection {
    SelectionReport report;
    std::unique_ptr<IMemoryAccessMethod> method;
  };
  [[nodiscard]] Selection select(hw::Machine& machine) const;

  [[nodiscard]] const KnowledgeBase& knowledge_base() const noexcept { return kb_; }

 private:
  KnowledgeBase kb_;
  std::vector<MethodDescriptor> catalog_;
};

/// Human-readable label for a mode union ("f0", "f1", ..., or a composite
/// like "f2+f3" when no single assumption covers it).
[[nodiscard]] std::string label_of(const FaultModes& modes);

}  // namespace aft::mem
