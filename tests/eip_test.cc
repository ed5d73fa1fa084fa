#include "identify/eip.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generator.h"
#include "graph/paper_graphs.h"
#include "graph/stats.h"
#include "pattern/pattern_generator.h"

namespace gpar {
namespace {

class EipTest : public ::testing::Test {
 protected:
  EipTest() : g1_(MakePaperG1()) {
    sigma_ = {g1_.r1, g1_.r5, g1_.r6, g1_.r7, g1_.r8};
  }
  PaperG1 g1_;
  std::vector<Gpar> sigma_;
};

TEST_F(EipTest, SequentialReferenceOnG1) {
  EipOptions opt;
  opt.algorithm = EipAlgorithm::kSequential;
  opt.eta = 0.5;
  auto r = IdentifyEntities(g1_.graph, sigma_, opt);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->supp_q, 5u);
  EXPECT_EQ(r->supp_qbar, 1u);
  ASSERT_EQ(r->rule_evals.size(), 5u);
  EXPECT_DOUBLE_EQ(r->rule_evals[0].conf, 0.6);  // R1
  EXPECT_DOUBLE_EQ(r->rule_evals[1].conf, 0.8);  // R5
  EXPECT_DOUBLE_EQ(r->rule_evals[2].conf, 0.4);  // R6
  EXPECT_DOUBLE_EQ(r->rule_evals[3].conf, 0.6);  // R7
  EXPECT_DOUBLE_EQ(r->rule_evals[4].conf, 0.2);  // R8

  // At eta = 0.5: R1, R5, R7 qualify. Output = union of their Q(x, G):
  // Q1 = {c1,c2,c3,c5}, Q5 = {c1..c5}, Q7 = {c1,c2,c3,c5}.
  std::vector<NodeId> expected{g1_.cust1, g1_.cust2, g1_.cust3, g1_.cust4,
                               g1_.cust5};
  EXPECT_EQ(r->entities, expected);
}

TEST_F(EipTest, AllAlgorithmsAgree) {
  for (double eta : {0.3, 0.5, 0.7}) {
    EipOptions seq;
    seq.algorithm = EipAlgorithm::kSequential;
    seq.eta = eta;
    auto ref = IdentifyEntities(g1_.graph, sigma_, seq);
    ASSERT_TRUE(ref.ok());

    for (EipAlgorithm algo : {EipAlgorithm::kMatch, EipAlgorithm::kMatchc,
                              EipAlgorithm::kDisVf2}) {
      EipOptions opt;
      opt.algorithm = algo;
      opt.eta = eta;
      opt.num_workers = 2;
      auto got = IdentifyEntities(g1_.graph, sigma_, opt);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->entities, ref->entities)
          << "algo " << static_cast<int>(algo) << " eta " << eta;
      ASSERT_EQ(got->rule_evals.size(), ref->rule_evals.size());
      for (size_t i = 0; i < ref->rule_evals.size(); ++i) {
        EXPECT_EQ(got->rule_evals[i].supp_r, ref->rule_evals[i].supp_r);
        EXPECT_EQ(got->rule_evals[i].supp_qqbar,
                  ref->rule_evals[i].supp_qqbar);
        EXPECT_DOUBLE_EQ(got->rule_evals[i].conf, ref->rule_evals[i].conf);
      }
    }
  }
}

TEST_F(EipTest, ResultIndependentOfWorkerCount) {
  EipOptions opt;
  opt.algorithm = EipAlgorithm::kMatch;
  opt.eta = 0.5;
  opt.num_workers = 1;
  auto ref = IdentifyEntities(g1_.graph, sigma_, opt);
  ASSERT_TRUE(ref.ok());
  for (uint32_t n : {2u, 3u, 5u, 8u}) {
    opt.num_workers = n;
    auto got = IdentifyEntities(g1_.graph, sigma_, opt);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->entities, ref->entities) << "n=" << n;
  }
}

TEST_F(EipTest, RequireConsequentNarrowsOutput) {
  EipOptions opt;
  opt.algorithm = EipAlgorithm::kMatch;
  opt.eta = 0.5;
  opt.require_consequent = true;
  auto r = IdentifyEntities(g1_.graph, sigma_, opt);
  ASSERT_TRUE(r.ok());
  // P_R matches of R1/R5/R7: {c1,c2,c3} ∪ {c1..c4} = {c1,c2,c3,c4};
  // cust5 (an antecedent-only match) is excluded under this semantics.
  std::vector<NodeId> expected{g1_.cust1, g1_.cust2, g1_.cust3, g1_.cust4};
  EXPECT_EQ(r->entities, expected);

  // Same under the sequential reference.
  opt.algorithm = EipAlgorithm::kSequential;
  auto r2 = IdentifyEntities(g1_.graph, sigma_, opt);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->entities, expected);
}

TEST_F(EipTest, HighEtaYieldsEmpty) {
  EipOptions opt;
  opt.eta = 1.5;  // max conf on G1 is 0.8
  auto r = IdentifyEntities(g1_.graph, sigma_, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->entities.empty());
}

TEST_F(EipTest, WorkCountersOrderAsExpected) {
  // disVF2 does two checks at every candidate and enumerates; Match issues
  // the fewest queries thanks to sharing and minimal policies.
  EipOptions match_opt;
  match_opt.algorithm = EipAlgorithm::kMatch;
  match_opt.eta = 0.5;
  auto match_r = IdentifyEntities(g1_.graph, sigma_, match_opt);
  ASSERT_TRUE(match_r.ok());

  EipOptions dis_opt;
  dis_opt.algorithm = EipAlgorithm::kDisVf2;
  dis_opt.eta = 0.5;
  auto dis_r = IdentifyEntities(g1_.graph, sigma_, dis_opt);
  ASSERT_TRUE(dis_r.ok());

  EXPECT_GT(dis_r->exists_queries, match_r->exists_queries);
  EXPECT_GT(dis_r->embeddings_enumerated, 0u);
}

TEST_F(EipTest, AblationVariantsAgree) {
  // Every combination of the Match optimizations must give identical
  // results — the toggles change cost, never answers.
  EipOptions base;
  base.algorithm = EipAlgorithm::kMatch;
  base.eta = 0.5;
  base.num_workers = 2;
  auto ref = IdentifyEntities(g1_.graph, sigma_, base);
  ASSERT_TRUE(ref.ok());
  for (bool guided : {false, true}) {
    for (bool share : {false, true}) {
      EipOptions opt = base;
      opt.use_guided_search = guided;
      opt.share_multi_patterns = share;
      auto got = IdentifyEntities(g1_.graph, sigma_, opt);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->entities, ref->entities)
          << "guided=" << guided << " share=" << share;
      for (size_t i = 0; i < ref->rule_evals.size(); ++i) {
        EXPECT_DOUBLE_EQ(got->rule_evals[i].conf, ref->rule_evals[i].conf);
      }
    }
  }
}

TEST_F(EipTest, InputValidation) {
  EXPECT_FALSE(IdentifyEntities(g1_.graph, {}, {}).ok());

  // Mixed predicates rejected.
  PaperG2 g2 = MakePaperG2();
  std::vector<Gpar> mixed{g1_.r1, g2.r4};
  EXPECT_FALSE(IdentifyEntities(g1_.graph, mixed, {}).ok());

  EipOptions bad_eta;
  bad_eta.eta = 0;
  EXPECT_FALSE(IdentifyEntities(g1_.graph, sigma_, bad_eta).ok());
}

TEST(EipSyntheticTest, AgreementOnGeneratedWorkload) {
  // End-to-end: generated graph + generated GPAR workload; all algorithms
  // and worker counts agree with the sequential oracle.
  Graph g = MakePokecLike(1, 99);
  LabelId user = g.labels().Lookup("user");
  LabelId like_music = g.labels().Lookup("like_music");
  auto freq = FrequentEdgePatterns(g);
  LabelId target = kNoLabel;
  for (const EdgePatternStat& s : freq) {
    if (s.edge_label == like_music) {
      target = s.dst_label;
      break;
    }
  }
  ASSERT_NE(target, kNoLabel);
  Predicate q{user, like_music, target};

  GparGenOptions gopt;
  gopt.num_nodes = 4;
  gopt.num_edges = 4;
  gopt.max_radius = 2;
  std::vector<Gpar> sigma = GenerateGparWorkload(g, q, 6, gopt);
  ASSERT_GE(sigma.size(), 3u);

  EipOptions seq;
  seq.algorithm = EipAlgorithm::kSequential;
  seq.eta = 0.8;
  auto ref = IdentifyEntities(g, sigma, seq);
  ASSERT_TRUE(ref.ok());

  for (EipAlgorithm algo :
       {EipAlgorithm::kMatch, EipAlgorithm::kMatchc}) {
    EipOptions opt;
    opt.algorithm = algo;
    opt.eta = 0.8;
    opt.num_workers = 3;
    auto got = IdentifyEntities(g, sigma, opt);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->entities, ref->entities);
    for (size_t i = 0; i < ref->rule_evals.size(); ++i) {
      EXPECT_DOUBLE_EQ(got->rule_evals[i].conf, ref->rule_evals[i].conf);
    }
  }
}

}  // namespace
}  // namespace gpar
