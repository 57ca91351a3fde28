// Tests for deployment manifests: serialization round-trip, parse errors,
// registry population, re-qualification, and the provenance audit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "manifest/manifest.hpp"

namespace {

using namespace aft::manifest;
using aft::contract::clause_eq;
using aft::contract::clause_le;
using aft::core::BindingTime;
using aft::core::Context;
using aft::core::Subject;

Manifest reference_manifest() {
  Manifest m;
  m.name = "irs-software";
  m.version = "4.2";
  m.assumptions.push_back(AssumptionRecord{
      .id = "sri.bh.representable",
      .statement = "Horizontal velocity can be represented by a short integer",
      .subject = Subject::kPhysicalEnvironment,
      .origin = "Ariane 4 SRI qualification",
      .rationale = "max HV over qualified trajectories is 21000",
      .stated_at = BindingTime::kDesign,
      .expectation = clause_le("traj.max-hv", 32767.0)});
  m.assumptions.push_back(AssumptionRecord{
      .id = "platform.interlocks",
      .statement = "Hardware interlocks shut the machine down on exceptions",
      .subject = Subject::kHardware,
      .origin = "Therac-20 platform family",
      .rationale = "interlock relays fitted on all prior models",
      .stated_at = BindingTime::kDesign,
      .expectation = clause_eq("platform.has-interlocks", true)});
  m.architectures.push_back(aft::arch::DagSnapshot{
      "D1", {"c1", "c2", "c3"}, {{"c1", "c2"}, {"c2", "c3"}}});
  return m;
}

TEST(ManifestTest, SerializeParseRoundTrip) {
  const Manifest original = reference_manifest();
  const Manifest parsed = Manifest::parse(original.serialize());
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.version, original.version);
  ASSERT_EQ(parsed.assumptions.size(), 2u);
  EXPECT_EQ(parsed.assumptions[0], original.assumptions[0]);
  EXPECT_EQ(parsed.assumptions[1], original.assumptions[1]);
  ASSERT_EQ(parsed.architectures.size(), 1u);
  EXPECT_EQ(parsed.architectures[0].name, "D1");
  EXPECT_EQ(parsed.architectures[0].nodes.size(), 3u);
  EXPECT_EQ(parsed.architectures[0].edges.size(), 2u);
}

TEST(ManifestTest, DoubleRoundTripIsIdentity) {
  const Manifest m = reference_manifest();
  const std::string once = m.serialize();
  const std::string twice = Manifest::parse(once).serialize();
  EXPECT_EQ(once, twice);
}

// Regression: a string bound that reads as a number or bool came back
// typed ("3" -> int64 3), and doubles were printed with 6 significant
// digits (0.1234567 -> 0.123457), so re-qualifying from the document gave
// different verdicts than re-qualifying the manifest in memory.
TEST(ManifestTest, RoundTripPreservesClauseBoundsAndVerdicts) {
  Manifest m;
  m.name = "bounds";
  const auto record = [](std::string id, aft::contract::Clause clause) {
    return AssumptionRecord{.id = std::move(id),
                            .statement = "s",
                            .origin = "o",
                            .rationale = "r",
                            .expectation = std::move(clause)};
  };
  m.assumptions.push_back(
      record("fw", clause_eq("firmware.rev", std::string("3"))));
  m.assumptions.push_back(record("ratio", clause_le("load.ratio", 0.1234567)));
  m.assumptions.push_back(
      record("flag", clause_eq("mode", std::string("true"))));
  m.assumptions.push_back(record(
      "text", clause_eq("banner", std::string(" a \"quoted\" \\ line\n "))));
  m.assumptions.push_back(record("tiny", clause_le("eps", 4.9e-324)));
  m.assumptions.push_back(record("big", clause_le("limit", 1e20)));

  const Manifest parsed = Manifest::parse(m.serialize());
  EXPECT_EQ(parsed.assumptions, m.assumptions);

  Context ctx;
  ctx.set("firmware.rev", std::string("3"));
  ctx.set("load.ratio", 0.1234569);
  ctx.set("mode", std::string("true"));
  ctx.set("banner", std::string(" a \"quoted\" \\ line\n "));
  ctx.set("eps", 0.0);
  ctx.set("limit", 1e19);
  const auto ids = [](const std::vector<aft::core::Clash>& clashes) {
    std::vector<std::string> out;
    for (const auto& clash : clashes) out.push_back(clash.assumption_id);
    return out;
  };
  const std::vector<std::string> in_memory = ids(m.requalify(ctx));
  EXPECT_EQ(in_memory, std::vector<std::string>{"ratio"});
  EXPECT_EQ(ids(parsed.requalify(ctx)), in_memory);
}

// Regression: the text fields were written raw, so a statement holding a
// line break produced a document parse() rejected, and leading/trailing
// blanks or a leading quote came back altered.  Such fields are quoted now;
// fields that read back raw are still written raw.
TEST(ManifestTest, RoundTripPreservesAwkwardTextFields) {
  const std::vector<std::string> awkward = {
      "line one\nline two", "say \"hi\"", "\"leading quote", "back\\slash",
      "a = b", "  padded  ", "\ttabbed\t", "cr\r", "x -> y", ""};
  Manifest m;
  m.name = " spaced name ";
  m.version = "4.2\nrc";
  for (std::size_t i = 0; i < awkward.size(); ++i) {
    m.assumptions.push_back(AssumptionRecord{
        .id = "id" + std::to_string(i) + awkward[i],
        .statement = awkward[i],
        .origin = awkward[(i + 1) % awkward.size()],
        .rationale = awkward[(i + 2) % awkward.size()],
        .expectation = clause_eq("key" + std::to_string(i) + awkward[i],
                                 awkward[(i + 3) % awkward.size()])});
  }
  aft::arch::DagSnapshot dag;
  dag.name = "dag\nname";
  dag.nodes = {"plain", "x -> y", "\"q\"", " pad ", "multi\nline"};
  dag.edges = {{"x -> y", "\"q\""}, {"\"q\"", " pad "}, {"plain", "x -> y"},
               {" pad ", "multi\nline"}};
  m.architectures.push_back(dag);

  const std::string document = m.serialize();
  const Manifest parsed = Manifest::parse(document);
  EXPECT_EQ(parsed.name, m.name);
  EXPECT_EQ(parsed.version, m.version);
  EXPECT_EQ(parsed.assumptions, m.assumptions);
  ASSERT_EQ(parsed.architectures.size(), 1u);
  EXPECT_EQ(parsed.architectures[0].name, dag.name);
  EXPECT_EQ(parsed.architectures[0].nodes, dag.nodes);
  EXPECT_EQ(parsed.architectures[0].edges, dag.edges);
  EXPECT_EQ(parsed.serialize(), document);
  // Fields that read back raw stay raw.
  EXPECT_NE(document.find("statement = a = b\n"), std::string::npos);
  EXPECT_NE(document.find("statement = back\\slash\n"), std::string::npos);
  EXPECT_NE(document.find("node = plain\n"), std::string::npos);
}

TEST(ManifestParseErrorTest, MalformedQuotedBound) {
  const std::string head =
      "[assumption]\nid = a\nexpect_key = k\nexpect_op = ==\nexpect_value = ";
  EXPECT_THROW((void)Manifest::parse(head + "\"open\n"), ManifestError);
  EXPECT_THROW((void)Manifest::parse(head + "\"a\"b\"\n"), ManifestError);
  EXPECT_THROW((void)Manifest::parse(head + "\"bad \\q\"\n"), ManifestError);
  EXPECT_THROW((void)Manifest::parse(head + "\"\\\"\n"), ManifestError);
}

TEST(ManifestTest, ParseToleratesCommentsAndBlankLines) {
  const Manifest m = Manifest::parse(
      "# header comment\n\n[meta]\nname = x\n\n# trailing comment\n");
  EXPECT_EQ(m.name, "x");
}

TEST(ManifestParseErrorTest, KeyValueOutsideSection) {
  EXPECT_THROW((void)Manifest::parse("name = x\n"), ManifestError);
}

TEST(ManifestParseErrorTest, UnknownSection) {
  EXPECT_THROW((void)Manifest::parse("[bogus]\n"), ManifestError);
}

TEST(ManifestParseErrorTest, AssumptionWithoutId) {
  EXPECT_THROW((void)Manifest::parse("[assumption]\nstatement = s\n"
                                     "expect_key = k\n"),
               ManifestError);
}

TEST(ManifestParseErrorTest, AssumptionWithoutExpectation) {
  EXPECT_THROW((void)Manifest::parse("[assumption]\nid = a\n"), ManifestError);
}

TEST(ManifestParseErrorTest, BadOperatorAndSubject) {
  EXPECT_THROW((void)Manifest::parse("[assumption]\nid = a\nexpect_key = k\n"
                                     "expect_op = ~=\n"),
               ManifestError);
  EXPECT_THROW((void)Manifest::parse("[assumption]\nid = a\nexpect_key = k\n"
                                     "subject = galaxy\n"),
               ManifestError);
}

TEST(ManifestParseErrorTest, CyclicArchitectureRejected) {
  EXPECT_THROW((void)Manifest::parse("[architecture]\nname = D\nnode = a\n"
                                     "node = b\nedge = a -> b\nedge = b -> a\n"),
               ManifestError);
}

TEST(ManifestParseErrorTest, ErrorCarriesLineNumber) {
  try {
    (void)Manifest::parse("[meta]\nname = x\nbogus-line-without-equals\n");
    FAIL() << "expected ManifestError";
  } catch (const ManifestError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(ManifestTest, ValueTypingInExpectations) {
  const Manifest m = Manifest::parse(
      "[assumption]\nid = a\nexpect_key = k\nexpect_op = ==\nexpect_value = true\n"
      "[assumption]\nid = b\nexpect_key = k2\nexpect_op = <=\nexpect_value = 42\n"
      "[assumption]\nid = c\nexpect_key = k3\nexpect_op = ==\nexpect_value = hello\n"
      "[assumption]\nid = d\nexpect_key = k4\nexpect_op = >=\nexpect_value = 2.5\n");
  EXPECT_TRUE(std::holds_alternative<bool>(m.assumptions[0].expectation.bound));
  EXPECT_TRUE(std::holds_alternative<std::int64_t>(m.assumptions[1].expectation.bound));
  EXPECT_TRUE(std::holds_alternative<std::string>(m.assumptions[2].expectation.bound));
  EXPECT_TRUE(std::holds_alternative<double>(m.assumptions[3].expectation.bound));
}

TEST(ManifestTest, RequalifyDetectsTheArianeClash) {
  const Manifest m = reference_manifest();

  Context ariane4;
  ariane4.set("traj.max-hv", std::int64_t{21000});
  ariane4.set("platform.has-interlocks", true);
  EXPECT_TRUE(m.requalify(ariane4).empty());

  Context ariane5;
  ariane5.set("traj.max-hv", std::int64_t{39000});
  ariane5.set("platform.has-interlocks", true);
  const auto clashes = m.requalify(ariane5);
  ASSERT_EQ(clashes.size(), 1u);
  EXPECT_EQ(clashes[0].assumption_id, "sri.bh.representable");
  EXPECT_NE(clashes[0].observed.find("39000"), std::string::npos);
}

TEST(ManifestTest, UnobservableContextLeavesAssumptionsUnverified) {
  const Manifest m = reference_manifest();
  Context empty;
  EXPECT_TRUE(m.requalify(empty).empty());  // unverifiable, not violated

  // But a registry populated from the manifest reports them as unverified —
  // visible, unlike the hardwired original.
  aft::core::AssumptionRegistry registry;
  m.populate(registry);
  registry.verify_all(empty);
  EXPECT_EQ(registry.find("sri.bh.representable")->state(),
            aft::core::AssumptionState::kUnverified);
}

TEST(ManifestTest, PopulateRejectsDuplicateIds) {
  Manifest m = reference_manifest();
  m.assumptions.push_back(m.assumptions[0]);
  aft::core::AssumptionRegistry registry;
  EXPECT_THROW(m.populate(registry), std::invalid_argument);
}

TEST(ManifestTest, ProvenanceAuditFlagsHiddenIntelligence) {
  Manifest m = reference_manifest();
  m.assumptions.push_back(AssumptionRecord{
      .id = "mystery",
      .statement = "it just works",
      .subject = Subject::kThirdPartySoftware,
      .origin = "",
      .rationale = "",
      .stated_at = BindingTime::kDesign,
      .expectation = clause_eq("x", true)});
  const auto flagged = m.audit_provenance();
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], "mystery");
}

TEST(ClauseAssumptionTest, StateTransitions) {
  const AssumptionRecord record{
      .id = "a",
      .statement = "k <= 10",
      .subject = Subject::kExecutionEnvironment,
      .origin = "o",
      .rationale = "r",
      .stated_at = BindingTime::kDesign,
      .expectation = clause_le("k", 10.0)};
  ClauseAssumption assumption(record);
  Context ctx;
  assumption.verify(ctx);
  EXPECT_EQ(assumption.state(), aft::core::AssumptionState::kUnverified);
  ctx.set("k", 5.0);
  assumption.verify(ctx);
  EXPECT_EQ(assumption.state(), aft::core::AssumptionState::kHolds);
  ctx.set("k", 50.0);
  const auto clash = assumption.verify(ctx);
  ASSERT_TRUE(clash.has_value());
  EXPECT_NE(clash->observed.find("50"), std::string::npos);
  EXPECT_NE(clash->observed.find("k <= 10"), std::string::npos);
}

}  // namespace
