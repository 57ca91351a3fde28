#include "mem/selector.hpp"

#include <algorithm>
#include <stdexcept>

#include "mem/method_ecc.hpp"
#include "mem/method_mirror.hpp"
#include "mem/method_raw.hpp"
#include "mem/method_remap.hpp"
#include "mem/method_tmr.hpp"

namespace aft::mem {

std::vector<MethodDescriptor> standard_catalog() {
  std::vector<MethodDescriptor> catalog;

  catalog.push_back(MethodDescriptor{
      .name = "M0-raw",
      .cost = MethodCost{.storage_factor = 1.0, .read_cost = 1.0, .write_cost = 1.0},
      .tolerance = ToleranceProfile{},
      .devices_required = 1,
      .build = [](const std::vector<hw::MemoryChip*>& d) {
        return std::make_unique<RawAccess>(*d.at(0));
      }});

  catalog.push_back(MethodDescriptor{
      .name = "M1-ecc-scrub",
      .cost = MethodCost{.storage_factor = 1.125,
                         .read_cost = 1.2,
                         .write_cost = 1.2,
                         .maintenance_cost = 0.1},
      .tolerance = ToleranceProfile{.transient = true},
      .devices_required = 1,
      .build = [](const std::vector<hw::MemoryChip*>& d) {
        return std::make_unique<EccScrubAccess>(*d.at(0));
      }});

  catalog.push_back(MethodDescriptor{
      .name = "M2-ecc-remap",
      .cost = MethodCost{.storage_factor = 1.125 / 0.875,
                         .read_cost = 1.3,
                         .write_cost = 1.5,
                         .maintenance_cost = 0.15},
      .tolerance = ToleranceProfile{.transient = true, .stuck_at = true},
      .devices_required = 1,
      .build = [](const std::vector<hw::MemoryChip*>& d) {
        return std::make_unique<EccRemapAccess>(*d.at(0));
      }});

  catalog.push_back(MethodDescriptor{
      .name = "M3-sel-mirror",
      .cost = MethodCost{.storage_factor = 2.25,
                         .read_cost = 1.3,
                         .write_cost = 2.4,
                         .maintenance_cost = 0.2},
      .tolerance = ToleranceProfile{.transient = true, .sel = true},
      .devices_required = 2,
      .build = [](const std::vector<hw::MemoryChip*>& d) {
        return std::make_unique<SelMirrorAccess>(*d.at(0), *d.at(1));
      }});

  catalog.push_back(MethodDescriptor{
      .name = "M4-tmr-ecc",
      .cost = MethodCost{.storage_factor = 3.375,
                         .read_cost = 3.6,
                         .write_cost = 3.6,
                         .maintenance_cost = 0.3},
      .tolerance = ToleranceProfile{.transient = true,
                                    .stuck_at = true,
                                    .sel = true,
                                    .heavy_seu = true},
      .devices_required = 3,
      .build = [](const std::vector<hw::MemoryChip*>& d) {
        return std::make_unique<TmrEccAccess>(*d.at(0), *d.at(1), *d.at(2));
      }});

  return catalog;
}

std::string label_of(const FaultModes& m) {
  // Try the canonical assumptions first.
  for (const auto f :
       {FailureSemantics::kF0Stable, FailureSemantics::kF1TransientCmos,
        FailureSemantics::kF2StuckAtCmos, FailureSemantics::kF3SdramSel,
        FailureSemantics::kF4SdramSelSeu}) {
    const FaultModes fm = modes_of(f);
    if (fm.transient == m.transient && fm.stuck_at == m.stuck_at &&
        fm.sel == m.sel && fm.heavy_seu == m.heavy_seu) {
      return to_string(f);
    }
  }
  // Composite: name the minimal assumptions jointly covering the union.
  std::string label;
  if (m.stuck_at) label += "f2";
  if (m.sel || m.heavy_seu) {
    if (!label.empty()) label += "+";
    label += m.heavy_seu ? "f4" : "f3";
  }
  if (label.empty()) label = m.transient ? "f1" : "f0";
  return label;
}

MethodSelector::MethodSelector(KnowledgeBase kb, std::vector<MethodDescriptor> catalog)
    : kb_(std::move(kb)), catalog_(std::move(catalog)) {}

MethodSelector::MethodSelector()
    : MethodSelector(KnowledgeBase::with_defaults(), standard_catalog()) {}

SelectionReport MethodSelector::analyze(const hw::Machine& machine) const {
  SelectionReport report;
  report.log.push_back("introspecting platform '" + machine.name() + "' (" +
                       std::to_string(machine.bank_count()) + " banks)");

  // Step 1+2: per-bank introspection and knowledge-base lookup; the
  // platform-wide behaviour is the union of the banks' admitted modes.
  for (std::size_t i = 0; i < machine.bank_count(); ++i) {
    const hw::SpdRecord& spd = machine.bank(i).spd;
    const auto known = kb_.lookup(spd);
    SelectionReport::BankFinding finding{
        .slot = spd.slot,
        .vendor = spd.vendor,
        .model = spd.model,
        .lot = spd.lot,
        .semantics = FailureSemantics::kF4SdramSelSeu,  // pessimistic default
        .source = "unknown-part:worst-case"};
    if (known.has_value()) {
      finding.semantics = known->semantics;
      finding.source = known->source;
    } else {
      report.log.push_back("bank " + spd.slot +
                           ": no knowledge-base entry, assuming worst case f4");
    }
    const FaultModes fm = modes_of(finding.semantics);
    report.required.transient |= fm.transient;
    report.required.stuck_at |= fm.stuck_at;
    report.required.sel |= fm.sel;
    report.required.heavy_seu |= fm.heavy_seu;
    report.log.push_back("bank " + spd.slot + " (" + spd.vendor + " " + spd.model +
                         " lot " + spd.lot + "): " + to_string(finding.semantics) +
                         " [" + finding.source + "]");
    report.banks.push_back(std::move(finding));
  }
  report.required_label = label_of(report.required);
  report.log.push_back("resolved platform behaviour f = " + report.required_label);

  // Step 3: isolate adequate methods (and methods the platform can host).
  struct Candidate {
    const MethodDescriptor* desc;
  };
  std::vector<Candidate> adequate;
  for (const MethodDescriptor& desc : catalog_) {
    if (!desc.tolerance.masks(report.required)) {
      report.log.push_back(desc.name + ": inadequate for " + report.required_label);
      continue;
    }
    if (desc.devices_required > machine.bank_count()) {
      report.log.push_back(desc.name + ": needs " +
                           std::to_string(desc.devices_required) +
                           " devices, platform has " +
                           std::to_string(machine.bank_count()));
      continue;
    }
    adequate.push_back(Candidate{&desc});
  }

  // Step 4: cost ordering.
  std::sort(adequate.begin(), adequate.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.desc->cost.total() < b.desc->cost.total();
            });
  for (const Candidate& c : adequate) report.adequate.push_back(c.desc->name);

  // Step 5: minimum element.
  if (!adequate.empty()) {
    report.chosen = adequate.front().desc->name;
    report.log.push_back("selected " + report.chosen + " (cost " +
                         std::to_string(adequate.front().desc->cost.total()) + ")");
  } else {
    report.log.push_back(
        "NO adequate method: deployment must be refused (assumption failure "
        "would otherwise be latent)");
  }
  return report;
}

std::unique_ptr<IMemoryAccessMethod> MethodSelector::instantiate(
    hw::Machine& machine, const SelectionReport& report) const {
  if (!report.selected()) {
    throw std::runtime_error("MethodSelector: no adequate method was selected");
  }
  const auto it = std::find_if(
      catalog_.begin(), catalog_.end(),
      [&](const MethodDescriptor& d) { return d.name == report.chosen; });
  if (it == catalog_.end()) {
    throw std::runtime_error("MethodSelector: chosen method not in catalog");
  }
  if (machine.bank_count() < it->devices_required) {
    throw std::runtime_error("MethodSelector: machine lacks required devices");
  }
  std::vector<hw::MemoryChip*> devices;
  devices.reserve(it->devices_required);
  for (std::size_t i = 0; i < it->devices_required; ++i) {
    devices.push_back(machine.bank(i).chip.get());
  }
  return it->build(devices);
}

MethodSelector::Selection MethodSelector::select(hw::Machine& machine) const {
  Selection sel{analyze(machine), nullptr};
  if (sel.report.selected()) sel.method = instantiate(machine, sel.report);
  return sel;
}

}  // namespace aft::mem
