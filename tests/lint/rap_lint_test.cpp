// Fixture-driven self-tests for tools/rap_lint: every rule must fire on its
// bad fixture at the expected lines and stay silent on its good fixture,
// and every suppression-comment spelling must actually suppress.
//
// Fixtures live in tests/lint/fixtures/ (RAP_LINT_FIXTURE_DIR, injected by
// CMake). The tree-wide scan deliberately skips any directory named
// `fixtures`, so the bad samples never pollute the lint_tree check.
#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/rap_lint/lexer.h"
#include "tools/rap_lint/lint.h"

namespace rap::lint {
namespace {

// Split so the directive scanner never sees its own trigger in this file.
const std::string kPrefix = std::string("rap-") + "lint:";

std::string load_fixture(const std::string& name) {
  const std::string path = std::string(RAP_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

std::multiset<std::string> rule_ids(const std::vector<Finding>& findings) {
  std::multiset<std::string> ids;
  for (const Finding& f : findings) ids.insert(f.rule);
  return ids;
}

std::vector<std::size_t> lines_of(const std::vector<Finding>& findings,
                                  const std::string& rule) {
  std::vector<std::size_t> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  return lines;
}

// --- lexer ---------------------------------------------------------------

TEST(Lexer, StripsCommentsAndTracksLines) {
  const auto tokens = tokenize("int a; // trailing rand()\n/* block\nrand */\nint b;");
  ASSERT_EQ(tokens.size(), 6u);  // int a ; int b ;
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[3].text, "int");
  EXPECT_EQ(tokens[3].line, 4u);  // block comment advanced two lines
}

TEST(Lexer, StringContentsAreTokensNotIdentifiers) {
  const auto tokens = tokenize("f(\"std::rand inside\");");
  ASSERT_EQ(tokens.size(), 5u);  // f ( "..." ) ;
  EXPECT_EQ(tokens[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens[2].text, "std::rand inside");
}

TEST(Lexer, RawStringsAndEscapes) {
  const auto tokens = tokenize(R"(auto s = R"tag(a "quoted" \ rand)tag"; auto t = "a\"b";)");
  const Token* raw = nullptr;
  const Token* esc = nullptr;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kString && raw == nullptr) {
      raw = &t;
    } else if (t.kind == TokenKind::kString) {
      esc = &t;
    }
  }
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->text, "a \"quoted\" \\ rand");
  ASSERT_NE(esc, nullptr);
  EXPECT_EQ(esc->text, "a\\\"b");  // escape kept verbatim, quote not closed
}

TEST(Lexer, ScopeResolutionIsOneToken) {
  const auto tokens = tokenize("std::rand; a : b");
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "::");
  const auto colon = std::find_if(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.kind == TokenKind::kPunct && t.text == ":";
  });
  EXPECT_NE(colon, tokens.end());
}

TEST(Lexer, NumbersWithDigitSeparatorsAndExponents) {
  const auto tokens = tokenize("double d = 3'300.0 + 1e-5;");
  ASSERT_GE(tokens.size(), 6u);
  EXPECT_EQ(tokens[3].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[3].text, "3'300.0");
  EXPECT_EQ(tokens[5].text, "1e-5");
}

// --- path classification -------------------------------------------------

TEST(ClassifyPath, RuleApplicability) {
  const FileClass core = classify_path("src/core/greedy.cpp");
  EXPECT_TRUE(core.determinism_core);
  EXPECT_TRUE(core.in_src);
  EXPECT_FALSE(core.is_header);
  EXPECT_FALSE(core.rng_exempt);

  const FileClass check = classify_path("src/check/audit.cpp");
  EXPECT_TRUE(check.determinism_core);

  const FileClass rng = classify_path("src/util/rng.cpp");
  EXPECT_TRUE(rng.rng_exempt);
  EXPECT_FALSE(rng.determinism_core);

  const FileClass header = classify_path("src/graph/dijkstra.h");
  EXPECT_TRUE(header.is_header);
  EXPECT_TRUE(header.in_src);

  const FileClass test_file = classify_path("tests/core/greedy_test.cpp");
  EXPECT_FALSE(test_file.in_src);
  EXPECT_FALSE(test_file.determinism_core);
  EXPECT_FALSE(test_file.concurrency_wrapped);
  EXPECT_FALSE(test_file.thread_spawn_banned);

  const FileClass serve = classify_path("src/serve/server.cpp");
  EXPECT_TRUE(serve.concurrency_wrapped);
  EXPECT_TRUE(serve.thread_spawn_banned);

  // The wrapper implementation and the two sanctioned spawn sites.
  const FileClass wrapper = classify_path("src/util/mutex.h");
  EXPECT_FALSE(wrapper.concurrency_wrapped);
  EXPECT_TRUE(wrapper.thread_spawn_banned);

  const FileClass pool = classify_path("src/util/thread_pool.cpp");
  EXPECT_FALSE(pool.concurrency_wrapped);
  EXPECT_FALSE(pool.thread_spawn_banned);

  const FileClass transport = classify_path("src/serve/transport.cpp");
  EXPECT_TRUE(transport.concurrency_wrapped);
  EXPECT_FALSE(transport.thread_spawn_banned);
}

// --- RAP001 banned randomness --------------------------------------------

TEST(Rap001, FiresOnEveryBannedSpelling) {
  const auto findings =
      lint_file("tests/sample.cpp", load_fixture("rap001_bad.cpp"));
  EXPECT_EQ(rule_ids(findings),
            (std::multiset<std::string>{"RAP001", "RAP001", "RAP001", "RAP001",
                                        "RAP001"}));
  EXPECT_EQ(lines_of(findings, "RAP001"),
            (std::vector<std::size_t>{8, 8, 9, 13, 14}));
}

TEST(Rap001, SilentOnSeededRngAndNearMisses) {
  EXPECT_TRUE(
      lint_file("tests/sample.cpp", load_fixture("rap001_good.cpp")).empty());
}

TEST(Rap001, RngImplementationIsExempt) {
  EXPECT_TRUE(
      lint_file("src/util/rng.cpp", load_fixture("rap001_bad.cpp")).empty());
}

// --- RAP002 unordered iteration ------------------------------------------

TEST(Rap002, FiresOnRangeForOverUnorderedInCore) {
  const auto findings =
      lint_file("src/core/sample.cpp", load_fixture("rap002_bad.cpp"));
  EXPECT_EQ(lines_of(findings, "RAP002"),
            (std::vector<std::size_t>{9, 16, 24}));
}

TEST(Rap002, SilentOnLookupsSortedCopiesAndAnnotations) {
  EXPECT_TRUE(
      lint_file("src/core/sample.cpp", load_fixture("rap002_good.cpp")).empty());
}

TEST(Rap002, OutsideTheCoreTheRuleDoesNotApply) {
  EXPECT_TRUE(
      lint_file("src/eval/sample.cpp", load_fixture("rap002_bad.cpp")).empty());
}

// --- RAP003 / RAP004 header hygiene --------------------------------------

TEST(Rap003, FiresOnIncludeGuardHeader) {
  const auto findings =
      lint_file("src/sample.h", load_fixture("rap003_bad.h"));
  EXPECT_EQ(rule_ids(findings), (std::multiset<std::string>{"RAP003"}));
}

TEST(Rap003, SilentWhenPragmaOnceLeads) {
  EXPECT_TRUE(lint_file("src/sample.h", load_fixture("rap003_good.h")).empty());
}

TEST(Rap003, DoesNotApplyToTranslationUnits) {
  EXPECT_TRUE(
      lint_file("src/sample.cpp", load_fixture("rap003_bad.h")).empty());
}

TEST(Rap004, FiresOnUsingNamespaceInHeader) {
  const auto findings =
      lint_file("src/sample.h", load_fixture("rap004_bad.h"));
  EXPECT_EQ(rule_ids(findings), (std::multiset<std::string>{"RAP004"}));
  EXPECT_EQ(lines_of(findings, "RAP004"), (std::vector<std::size_t>{6}));
}

TEST(Rap004, SilentOnUsingDeclarationsAndAliases) {
  EXPECT_TRUE(lint_file("src/sample.h", load_fixture("rap004_good.h")).empty());
}

// --- RAP005 telemetry name grammar ---------------------------------------

TEST(Rap005, FiresOnEveryGrammarViolation) {
  const auto findings =
      lint_file("src/obs_user.cpp", load_fixture("rap005_bad.cpp"));
  EXPECT_EQ(lines_of(findings, "RAP005"),
            (std::vector<std::size_t>{7, 8, 9, 10, 11, 12}));
}

TEST(Rap005, SilentOnConformingAndRuntimeNames) {
  EXPECT_TRUE(
      lint_file("src/obs_user.cpp", load_fixture("rap005_good.cpp")).empty());
}

// --- RAP006 naked new/delete ---------------------------------------------

TEST(Rap006, FiresOnNewAndDeleteExpressionsInSrc) {
  const auto findings =
      lint_file("src/sample.cpp", load_fixture("rap006_bad.cpp"));
  EXPECT_EQ(lines_of(findings, "RAP006"),
            (std::vector<std::size_t>{7, 11, 15, 20}));
}

TEST(Rap006, SilentOnRaiiAndDeletedFunctions) {
  EXPECT_TRUE(
      lint_file("src/sample.cpp", load_fixture("rap006_good.cpp")).empty());
}

TEST(Rap006, OutsideSrcTheRuleDoesNotApply) {
  EXPECT_TRUE(
      lint_file("tests/sample.cpp", load_fixture("rap006_bad.cpp")).empty());
}

// --- RAP008 raw concurrency primitives -----------------------------------

TEST(Rap008, FiresOnEveryRawStdConcurrencyType) {
  const auto findings =
      lint_file("src/serve/sample.cpp", load_fixture("rap008_bad.cpp"));
  // lock_guard<std::mutex> / unique_lock<std::mutex> each fire twice: once
  // for the guard template, once for the mutex type argument.
  EXPECT_EQ(lines_of(findings, "RAP008"),
            (std::vector<std::size_t>{6, 7, 8, 11, 11, 16, 16}));
}

TEST(Rap008, SilentOnWrappersAndNearMisses) {
  EXPECT_TRUE(lint_file("src/serve/sample.cpp", load_fixture("rap008_good.cpp"))
                  .empty());
}

TEST(Rap008, TheWrapperImplementationItselfIsExempt) {
  EXPECT_TRUE(lint_file("src/util/sample.cpp", load_fixture("rap008_bad.cpp"))
                  .empty());
}

TEST(Rap008, OutsideSrcTheRuleDoesNotApply) {
  EXPECT_TRUE(
      lint_file("tests/sample.cpp", load_fixture("rap008_bad.cpp")).empty());
}

// --- RAP009 raw thread spawning ------------------------------------------

TEST(Rap009, FiresOnSpawnsAndDetaches) {
  const auto findings =
      lint_file("src/serve/sample.cpp", load_fixture("rap009_bad.cpp"));
  EXPECT_EQ(lines_of(findings, "RAP009"),
            (std::vector<std::size_t>{8, 9, 13, 16, 17}));
}

TEST(Rap009, SilentOnQueriesAndNearMisses) {
  EXPECT_TRUE(lint_file("src/serve/sample.cpp", load_fixture("rap009_good.cpp"))
                  .empty());
}

TEST(Rap009, ThreadPoolAndTransportAreSanctioned) {
  EXPECT_TRUE(
      lint_file("src/util/thread_pool.cpp", load_fixture("rap009_bad.cpp"))
          .empty());
  EXPECT_TRUE(
      lint_file("src/serve/transport.cpp", load_fixture("rap009_bad.cpp"))
          .empty());
}

// --- RAP010 unguarded mutex member ---------------------------------------

TEST(Rap010, FiresOnMutexMemberWithNoGuardedData) {
  const auto findings =
      lint_file("src/sample.h", load_fixture("rap010_bad.h"));
  EXPECT_EQ(rule_ids(findings), (std::multiset<std::string>{"RAP010"}));
  EXPECT_EQ(lines_of(findings, "RAP010"), (std::vector<std::size_t>{12}));
}

TEST(Rap010, SilentOnAnnotatedLockFreeAndGuardClasses) {
  EXPECT_TRUE(
      lint_file("src/sample.h", load_fixture("rap010_good.h")).empty());
}

TEST(Rap010, SuppressibleOnTheMemberLine) {
  const std::string source =
      "#pragma once\n"
      "class Pending {\n"
      "  rap::util::Mutex mutex_;  // " +
      kPrefix +
      " allow(RAP010)\n"
      "  int value_ = 0;\n"
      "};\n";
  EXPECT_TRUE(lint_file("src/sample.h", source).empty());
}

// --- RAP007 analysis escape hatch ----------------------------------------

// Split like kPrefix so this file never carries the identifier itself.
const std::string kNoTsa = std::string("RAP_NO_THREAD_") + "SAFETY_ANALYSIS";

TEST(TsaEscape, UnjustifiedUseFiresUnderRap007) {
  const std::string source = "void drop_lock() " + kNoTsa + " {}\n";
  const auto findings = lint_file("src/serve/sample.cpp", source);
  EXPECT_EQ(rule_ids(findings), (std::multiset<std::string>{"RAP007"}));
}

TEST(TsaEscape, CommentOnTheSameLineJustifies) {
  const std::string source =
      "void drop_lock() " + kNoTsa + " {}  // ownership moves to the caller\n";
  EXPECT_TRUE(lint_file("src/serve/sample.cpp", source).empty());
}

TEST(TsaEscape, CommentAboveTheDeclarationJustifies) {
  const std::string source =
      "// The guard's ownership transfer is invisible to the analysis.\n"
      "void drop_lock()\n"
      "    " + kNoTsa + " {}\n";
  EXPECT_TRUE(lint_file("src/serve/sample.cpp", source).empty());
}

TEST(TsaEscape, APrecedingStatementDoesNotJustify) {
  const std::string source =
      "int x = 1;  // unrelated comment ends with a statement\n"
      "int unrelated = 2;\n"
      "void drop_lock()\n"
      "    " + kNoTsa + " {}\n";
  const auto findings = lint_file("src/serve/sample.cpp", source);
  EXPECT_EQ(rule_ids(findings), (std::multiset<std::string>{"RAP007"}));
}

TEST(TsaEscape, TheDefinitionItselfIsExempt) {
  const std::string source =
      "#define " + kNoTsa + " __attribute__((no_thread_safety_analysis))\n";
  EXPECT_TRUE(lint_file("src/util/sample.cpp", source).empty());
}

// --- RAP007 directive hygiene + suppressions -----------------------------

TEST(Rap007, FiresOnUnparseableDirectives) {
  const auto findings =
      lint_file("tests/sample.cpp", load_fixture("rap007_bad.cpp"));
  EXPECT_EQ(lines_of(findings, "RAP007"),
            (std::vector<std::size_t>{4, 5, 6, 7}));
}

TEST(Rap007, SilentOnEveryAcceptedSpelling) {
  EXPECT_TRUE(
      lint_file("tests/sample.cpp", load_fixture("rap007_good.cpp")).empty());
}

TEST(Suppressions, EveryDirectiveSpellingSuppresses) {
  EXPECT_TRUE(
      lint_file("src/core/sample.cpp", load_fixture("suppress.cpp")).empty());
}

TEST(Suppressions, RemovingDirectivesSurfacesTheFindings) {
  std::string source = load_fixture("suppress.cpp");
  // Neutralise every directive; the violations must then surface.
  std::size_t at = 0;
  while ((at = source.find(kPrefix, at)) != std::string::npos) {
    source.replace(at, kPrefix.size(), "disabled:");
  }
  const auto findings = lint_file("src/core/sample.cpp", source);
  EXPECT_EQ(rule_ids(findings),
            (std::multiset<std::string>{"RAP001", "RAP001", "RAP002", "RAP005",
                                        "RAP006", "RAP006", "RAP006"}));
}

TEST(Suppressions, AllowOnlySilencesTheNamedRule) {
  // A naked new suppressed for the *wrong* rule must still fire.
  const std::string source = "int* p = new int(1);  // " + kPrefix + " allow(RAP001)\n";
  const auto findings = lint_file("src/core/sample.cpp", source);
  EXPECT_EQ(rule_ids(findings), (std::multiset<std::string>{"RAP006"}));
}

// --- misc API -------------------------------------------------------------

TEST(FormatFinding, PathLineRuleMessage) {
  const Finding f{"RAP001", "src/core/greedy.cpp", 12, "no rand"};
  EXPECT_EQ(format_finding(f), "src/core/greedy.cpp:12: [RAP001] no rand");
}

TEST(KnownRules, AscendingAndComplete) {
  const auto& rules = known_rules();
  ASSERT_EQ(rules.size(), 10u);
  EXPECT_TRUE(std::is_sorted(rules.begin(), rules.end()));
  EXPECT_EQ(rules.front(), "RAP001");
  EXPECT_EQ(rules.back(), "RAP010");
}

}  // namespace
}  // namespace rap::lint
