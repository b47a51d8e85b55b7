// Cross-engine property test: on random graphs and random BGP queries,
// SuccinctEdge and the RDF4J-like baseline (two independent stores and
// executors) must return exactly the same number of solutions. This is the
// strongest end-to-end correctness check in the suite: any disagreement in
// parsing, encoding, scanning, ordering or joining surfaces here.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baseline_engine.h"
#include "baselines/rdf4j_like.h"
#include "core/database.h"
#include "io/block_device.h"
#include "io/wal.h"
#include "rdf/vocabulary.h"
#include "sparql/sparql_parser.h"
#include "util/rng.h"

namespace sedge {
namespace {

struct PropertyParam {
  uint64_t seed;
  int num_triples;
  int num_subjects;
  int num_predicates;
  int num_objects;
};

class EngineAgreement : public ::testing::TestWithParam<PropertyParam> {};

std::string Iri(const std::string& kind, uint64_t i) {
  return "http://e.org/" + kind + std::to_string(i);
}

/// Random graph: object triples, datatype triples (plain literals "0" to
/// "19" on dp0..dp2) and rdf:type triples.
rdf::Graph RandomGraph(const PropertyParam& param, Rng* rng) {
  rdf::Graph graph;
  for (int i = 0; i < param.num_triples; ++i) {
    const std::string s = Iri("s", rng->Uniform(param.num_subjects));
    const uint64_t kind = rng->Uniform(4);
    if (kind == 0) {
      graph.Add(rdf::Term::Iri(s), rdf::Term::Iri(rdf::kRdfType),
                rdf::Term::Iri(Iri("C", rng->Uniform(6))));
    } else if (kind == 1) {
      graph.Add(rdf::Term::Iri(s),
                rdf::Term::Iri(Iri("dp", rng->Uniform(3))),
                rdf::Term::Literal(std::to_string(rng->Uniform(20))));
    } else {
      graph.Add(rdf::Term::Iri(s),
                rdf::Term::Iri(Iri("p", rng->Uniform(param.num_predicates))),
                rdf::Term::Iri(Iri("o", rng->Uniform(param.num_objects))));
    }
  }
  return graph;
}

TEST_P(EngineAgreement, RandomBgpQueriesAgree) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const rdf::Graph graph = RandomGraph(param, &rng);

  Database db;  // empty ontology: no reasoning effects to worry about
  ASSERT_TRUE(db.LoadData(graph).ok());
  db.set_reasoning(false);
  baselines::Rdf4jLikeStore reference;
  ASSERT_TRUE(reference.Build(graph).ok());
  baselines::BaselineEngine reference_engine(&reference);

  // Random queries: 1-3 triple patterns chained over shared variables.
  const auto random_slot = [&](int var_pool, const char* kind,
                               int constants) -> std::string {
    if (rng.Bernoulli(0.6)) {
      return "?v" + std::to_string(rng.Uniform(var_pool));
    }
    return "<" + Iri(kind, rng.Uniform(constants)) + ">";
  };
  for (int trial = 0; trial < 40; ++trial) {
    const int tps = 1 + static_cast<int>(rng.Uniform(3));
    std::string where;
    for (int t = 0; t < tps; ++t) {
      const std::string s = random_slot(2, "s", param.num_subjects);
      const uint64_t pk = rng.Uniform(3);
      std::string p;
      std::string o;
      if (pk == 0) {
        p = "<" + std::string(rdf::kRdfType) + ">";
        o = rng.Bernoulli(0.5) ? "?v" + std::to_string(2 + rng.Uniform(2))
                               : "<" + Iri("C", 6) + ">";
        if (!rng.Bernoulli(0.5)) o = "<" + Iri("C", rng.Uniform(6)) + ">";
      } else if (pk == 1) {
        p = "<" + Iri("dp", rng.Uniform(3)) + ">";
        o = rng.Bernoulli(0.5)
                ? "?v" + std::to_string(2 + rng.Uniform(2))
                : "\"" + std::to_string(rng.Uniform(20)) + "\"";
      } else {
        p = "<" + Iri("p", rng.Uniform(param.num_predicates)) + ">";
        o = rng.Bernoulli(0.5) ? "?v" + std::to_string(2 + rng.Uniform(2))
                               : "<" + Iri("o", rng.Uniform(param.num_objects)) +
                                     ">";
      }
      where += s + " " + p + " " + o + " . ";
    }
    const std::string sparql = "SELECT * WHERE { " + where + "}";
    auto parsed = sparql::ParseQuery(sparql);
    ASSERT_TRUE(parsed.ok()) << sparql;

    const auto expected = reference_engine.ExecuteCount(parsed.value());
    ASSERT_TRUE(expected.ok()) << sparql;
    const auto got = db.QueryCount(sparql);
    ASSERT_TRUE(got.ok()) << sparql << ": " << got.status().ToString();
    ASSERT_EQ(got.value(), expected.value()) << "disagreement on: " << sparql;
  }
}

// The operators after the basic graph pattern — UNION alignment and join,
// BIND, FILTER, DISTINCT — are shared by the executor and the shard
// coordinator, so the dist oracle grid cannot catch a bug in them. The
// baseline engine keeps its own copy; these trials wrap random patterns
// in each operator and compare solution counts with it. Every shape
// anchors on `?v0 <dpK> ?l`, so ?l is a literal. A random pattern shares
// its subject with the anchor or sits in a UNION joined on ?l, so no
// shape is a cartesian product.
TEST_P(EngineAgreement, RandomOperatorShapesAgree) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const rdf::Graph graph = RandomGraph(param, &rng);

  Database db;
  ASSERT_TRUE(db.LoadData(graph).ok());
  db.set_reasoning(false);
  baselines::Rdf4jLikeStore reference;
  ASSERT_TRUE(reference.Build(graph).ok());
  baselines::BaselineEngine reference_engine(&reference);

  const auto dp = [&]() { return "<" + Iri("dp", rng.Uniform(3)) + "> "; };
  // One random pattern on `subject`; a variable object is ?v2, recorded
  // in `vars`.
  const auto random_pattern = [&](const std::string& subject,
                                  std::vector<std::string>* vars) {
    const bool var_object = rng.Bernoulli(0.5);
    std::string p;
    std::string o;
    switch (rng.Uniform(3)) {
      case 0:
        p = "<" + std::string(rdf::kRdfType) + ">";
        o = "<" + Iri("C", rng.Uniform(6)) + ">";
        break;
      case 1:
        p = "<" + Iri("dp", rng.Uniform(3)) + ">";
        o = "\"" + std::to_string(rng.Uniform(20)) + "\"";
        break;
      default:
        p = "<" + Iri("p", rng.Uniform(param.num_predicates)) + ">";
        o = "<" + Iri("o", rng.Uniform(param.num_objects)) + ">";
        break;
    }
    if (var_object) {
      o = "?v2";
      vars->push_back("?v2");
    }
    return subject + " " + p + " " + o + " . ";
  };
  const auto numeric_filter = [&](const std::string& var) {
    static const char* const kOps[] = {"<", "<=", ">", ">=", "=", "!="};
    return "FILTER(" + var + " " + kOps[rng.Uniform(6)] + " " +
           std::to_string(rng.Uniform(21)) + ") ";
  };
  // SELECT DISTINCT over one or two of `vars`.
  const auto distinct_select = [&](const std::vector<std::string>& vars) {
    std::string select = "SELECT DISTINCT " + vars[rng.Uniform(vars.size())];
    if (rng.Bernoulli(0.5)) select += " " + vars[rng.Uniform(vars.size())];
    return select;
  };

  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::string> vars = {"?v0", "?l"};
    const std::string anchor = "?v0 " + dp() + "?l . ";
    std::string sparql;
    switch (trial % 5) {
      case 0: {  // {A} UNION {B}, joined to the anchor on the literal ?l
        std::vector<std::string> alt_vars;
        sparql = "SELECT * WHERE { " + anchor + "{ ?v1 " + dp() + "?l . " +
                 random_pattern("?v1", &alt_vars) + "} UNION { ?v1 " + dp() +
                 "?l } }";
        break;
      }
      case 1:  // numeric FILTER on the literal
        sparql = "SELECT * WHERE { " + anchor + random_pattern("?v0", &vars) +
                 numeric_filter("?l") + "}";
        break;
      case 2:  // BIND, then a FILTER on what it bound
        sparql = "SELECT * WHERE { " + anchor + random_pattern("?v0", &vars) +
                 "BIND(?l + 1 AS ?x) . " + numeric_filter("?x") + "}";
        break;
      case 3: {  // DISTINCT over one or two columns
        const std::string where = anchor + random_pattern("?v0", &vars);
        sparql = distinct_select(vars) + " WHERE { " + where + "}";
        break;
      }
      default: {  // DISTINCT over a UNION
        const std::string alt_a = anchor + random_pattern("?v0", &vars);
        const std::string alt_b = "?v0 " + dp() + "?l . ";
        sparql = distinct_select(vars) + " WHERE { { " + alt_a +
                 "} UNION { " + alt_b + "} }";
        break;
      }
    }
    auto parsed = sparql::ParseQuery(sparql);
    ASSERT_TRUE(parsed.ok()) << sparql;

    const auto expected = reference_engine.ExecuteCount(parsed.value());
    ASSERT_TRUE(expected.ok()) << sparql;
    const auto got = db.QueryCount(sparql);
    ASSERT_TRUE(got.ok()) << sparql << ": " << got.status().ToString();
    ASSERT_EQ(got.value(), expected.value()) << "disagreement on: " << sparql;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, EngineAgreement,
    ::testing::Values(PropertyParam{1, 50, 10, 4, 10},
                      PropertyParam{2, 200, 20, 6, 20},
                      PropertyParam{3, 1000, 50, 8, 40},
                      PropertyParam{4, 1000, 10, 3, 10},   // dense
                      PropertyParam{5, 3000, 200, 10, 200},  // sparse
                      PropertyParam{6, 500, 5, 2, 5}));      // very dense

// Delta-overlay property test: random interleavings of inserts, deletes
// and compactions must leave SuccinctEdge agreeing with an RDF4J-like
// reference store rebuilt from scratch on the current live triple set, on
// random BGP queries — the write path must be invisible to query
// semantics.
TEST(EngineAgreement, InterleavedWritesAndCompactionsAgree) {
  Rng rng(77);
  const int kSubjects = 25;
  const int kPredicates = 4;
  const int kObjects = 25;

  const auto random_triple = [&]() -> rdf::Triple {
    const std::string s = Iri("s", rng.Uniform(kSubjects));
    const uint64_t kind = rng.Uniform(4);
    if (kind == 0) {
      return {rdf::Term::Iri(s), rdf::Term::Iri(rdf::kRdfType),
              rdf::Term::Iri(Iri("C", rng.Uniform(5)))};
    }
    if (kind == 1) {
      return {rdf::Term::Iri(s), rdf::Term::Iri(Iri("dp", rng.Uniform(3))),
              rdf::Term::Literal(std::to_string(rng.Uniform(12)))};
    }
    return {rdf::Term::Iri(s), rdf::Term::Iri(Iri("p", rng.Uniform(kPredicates))),
            rdf::Term::Iri(Iri("o", rng.Uniform(kObjects)))};
  };

  // Seed graph mentioning every predicate and class (LiteMat ids are fixed
  // at build time; schema-new inserts would be skipped).
  rdf::Graph seed;
  for (uint64_t p = 0; p < kPredicates; ++p) {
    seed.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(Iri("p", p)),
             rdf::Term::Iri(Iri("o", 0)));
  }
  for (uint64_t p = 0; p < 3; ++p) {
    seed.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(Iri("dp", p)),
             rdf::Term::Literal("0"));
  }
  for (uint64_t c = 0; c < 5; ++c) {
    seed.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(rdf::kRdfType),
             rdf::Term::Iri(Iri("C", c)));
  }
  for (int i = 0; i < 120; ++i) seed.Add(random_triple());

  Database db;
  ASSERT_TRUE(db.LoadData(seed).ok());
  db.set_reasoning(false);
  db.set_compaction_ratio(0);  // compaction points are chosen by the rng

  // Live set mirrors the store's distinct-triple semantics.
  std::vector<rdf::Triple> live;
  for (const rdf::Triple& t : seed.triples()) {
    if (std::find(live.begin(), live.end(), t) == live.end()) {
      live.push_back(t);
    }
  }
  const auto contains = [&](const rdf::Triple& t) {
    for (const rdf::Triple& x : live) {
      if (x == t) return true;
    }
    return false;
  };

  const auto random_query = [&]() {
    const int tps = 1 + static_cast<int>(rng.Uniform(3));
    std::string where;
    for (int t = 0; t < tps; ++t) {
      const std::string s = rng.Bernoulli(0.6)
                                ? "?v" + std::to_string(rng.Uniform(2))
                                : "<" + Iri("s", rng.Uniform(kSubjects)) + ">";
      std::string p, o;
      const uint64_t pk = rng.Uniform(3);
      if (pk == 0) {
        p = "<" + std::string(rdf::kRdfType) + ">";
        o = rng.Bernoulli(0.5) ? "?v" + std::to_string(2 + rng.Uniform(2))
                               : "<" + Iri("C", rng.Uniform(5)) + ">";
      } else if (pk == 1) {
        p = "<" + Iri("dp", rng.Uniform(3)) + ">";
        o = rng.Bernoulli(0.5) ? "?v" + std::to_string(2 + rng.Uniform(2))
                               : "\"" + std::to_string(rng.Uniform(12)) + "\"";
      } else {
        p = "<" + Iri("p", rng.Uniform(kPredicates)) + ">";
        o = rng.Bernoulli(0.5) ? "?v" + std::to_string(2 + rng.Uniform(2))
                               : "<" + Iri("o", rng.Uniform(kObjects)) + ">";
      }
      where += s + " " + p + " " + o + " . ";
    }
    return "SELECT * WHERE { " + where + "}";
  };

  for (int step = 0; step < 240; ++step) {
    const rdf::Triple t = random_triple();
    if (rng.Bernoulli(0.65)) {
      ASSERT_TRUE(db.Insert(t).ok());
      if (!contains(t)) live.push_back(t);
    } else {
      ASSERT_TRUE(db.Remove(t).ok());
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (*it == t) {
          live.erase(it);
          break;
        }
      }
    }
    if (rng.Bernoulli(0.05)) {
      ASSERT_TRUE(db.Compact().ok());
    }

    if (step % 20 != 19) continue;
    ASSERT_EQ(db.num_triples(), live.size()) << "step " << step;
    rdf::Graph live_graph;
    for (const rdf::Triple& x : live) live_graph.Add(x);
    baselines::Rdf4jLikeStore reference;
    ASSERT_TRUE(reference.Build(live_graph).ok());
    baselines::BaselineEngine reference_engine(&reference);
    for (int trial = 0; trial < 6; ++trial) {
      const std::string sparql = random_query();
      auto parsed = sparql::ParseQuery(sparql);
      ASSERT_TRUE(parsed.ok()) << sparql;
      const auto expected = reference_engine.ExecuteCount(parsed.value());
      ASSERT_TRUE(expected.ok()) << sparql;
      const auto got = db.QueryCount(sparql);
      ASSERT_TRUE(got.ok()) << sparql << ": " << got.status().ToString();
      ASSERT_EQ(got.value(), expected.value())
          << "step " << step << ", disagreement on: " << sparql;
    }
  }
}

// Randomized durability property test: a random interleaving of inserts,
// removes, compactions and close-and-reopen cycles, run against an
// in-memory oracle set. The "deployment" persists only the block device —
// checkpoint extents plus the WAL region, no application callback; every
// reopen restores from Database::Open alone, and the recovered store must
// agree with the oracle on the exported triple set AND on random BGP
// queries checked against an independently rebuilt RDF4J-like reference.
TEST(WalDurability, RandomReopenCyclesMatchOracle) {
  Rng rng(20260730);
  const int kSubjects = 18;
  const int kPredicates = 3;
  const int kObjects = 18;

  const auto random_triple = [&]() -> rdf::Triple {
    const std::string s = Iri("s", rng.Uniform(kSubjects));
    const uint64_t kind = rng.Uniform(4);
    if (kind == 0) {
      return {rdf::Term::Iri(s), rdf::Term::Iri(rdf::kRdfType),
              rdf::Term::Iri(Iri("C", rng.Uniform(4)))};
    }
    if (kind == 1) {
      return {rdf::Term::Iri(s), rdf::Term::Iri(Iri("dp", rng.Uniform(2))),
              rdf::Term::Literal(std::to_string(rng.Uniform(10)))};
    }
    return {rdf::Term::Iri(s),
            rdf::Term::Iri(Iri("p", rng.Uniform(kPredicates))),
            rdf::Term::Iri(Iri("o", rng.Uniform(kObjects)))};
  };

  // Pinned schema triples: the snapshot must always mention every
  // predicate/class (LiteMat ids are fixed per build), so they hang off a
  // subject the random mutation space never touches.
  rdf::Graph seed;
  const rdf::Term pin = rdf::Term::Iri("http://e.org/pin");
  for (int p = 0; p < kPredicates; ++p) {
    seed.Add(pin, rdf::Term::Iri(Iri("p", p)), rdf::Term::Iri(Iri("o", 0)));
  }
  for (int p = 0; p < 2; ++p) {
    seed.Add(pin, rdf::Term::Iri(Iri("dp", p)), rdf::Term::Literal("0"));
  }
  for (int c = 0; c < 4; ++c) {
    seed.Add(pin, rdf::Term::Iri(rdf::kRdfType), rdf::Term::Iri(Iri("C", c)));
  }

  // What survives a "process exit": the block device alone — checkpoint
  // extents + WAL region. Everything else is restored by Database::Open.
  io::SimulatedBlockDevice device;

  std::unique_ptr<Database> db;
  bool provisioned = false;
  const auto reopen = [&]() {
    Database::OpenOptions options;
    options.wal_capacity_blocks = 64;  // small region: exercise forced
                                       // checkpoints on a full log too
    auto opened = Database::Open(&device, std::move(options));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(opened).value();
    db->set_reasoning(false);
    db->set_compaction_ratio(0.3);  // auto-compaction in the mix too
    if (!provisioned) {
      // First boot: install the seed base (device mode checkpoints the
      // replacement base automatically — the provisioning step).
      ASSERT_TRUE(db->LoadData(seed).ok());
      provisioned = true;
    }
  };
  reopen();

  std::set<rdf::Triple> oracle;
  for (const rdf::Triple& t : seed.triples()) oracle.insert(t);

  const auto check_against_oracle = [&]() {
    ASSERT_EQ(db->num_triples(), oracle.size());
    const rdf::Graph exported = db->store().ExportGraph();
    const std::set<rdf::Triple> got(exported.triples().begin(),
                                    exported.triples().end());
    ASSERT_EQ(got, oracle);

    rdf::Graph oracle_graph;
    for (const rdf::Triple& t : oracle) oracle_graph.Add(t);
    baselines::Rdf4jLikeStore reference;
    ASSERT_TRUE(reference.Build(oracle_graph).ok());
    baselines::BaselineEngine reference_engine(&reference);
    for (int trial = 0; trial < 4; ++trial) {
      std::string where;
      const int tps = 1 + static_cast<int>(rng.Uniform(2));
      for (int t = 0; t < tps; ++t) {
        const std::string s = rng.Bernoulli(0.6)
                                  ? "?v" + std::to_string(rng.Uniform(2))
                                  : "<" + Iri("s", rng.Uniform(kSubjects)) +
                                        ">";
        std::string p, o;
        const uint64_t pk = rng.Uniform(3);
        if (pk == 0) {
          p = "<" + std::string(rdf::kRdfType) + ">";
          o = rng.Bernoulli(0.5) ? "?v" + std::to_string(2 + rng.Uniform(2))
                                 : "<" + Iri("C", rng.Uniform(4)) + ">";
        } else if (pk == 1) {
          p = "<" + Iri("dp", rng.Uniform(2)) + ">";
          o = rng.Bernoulli(0.5)
                  ? "?v" + std::to_string(2 + rng.Uniform(2))
                  : "\"" + std::to_string(rng.Uniform(10)) + "\"";
        } else {
          p = "<" + Iri("p", rng.Uniform(kPredicates)) + ">";
          o = rng.Bernoulli(0.5) ? "?v" + std::to_string(2 + rng.Uniform(2))
                                 : "<" + Iri("o", rng.Uniform(kObjects)) +
                                       ">";
        }
        where += s + " " + p + " " + o + " . ";
      }
      const std::string sparql = "SELECT * WHERE { " + where + "}";
      auto parsed = sparql::ParseQuery(sparql);
      ASSERT_TRUE(parsed.ok()) << sparql;
      const auto expected = reference_engine.ExecuteCount(parsed.value());
      ASSERT_TRUE(expected.ok()) << sparql;
      const auto got_count = db->QueryCount(sparql);
      ASSERT_TRUE(got_count.ok()) << sparql;
      ASSERT_EQ(got_count.value(), expected.value())
          << "disagreement on: " << sparql;
    }
  };

  int reopens = 0;
  for (int step = 0; step < 400; ++step) {
    const double dice = static_cast<double>(rng.Uniform(100)) / 100.0;
    if (dice < 0.55) {
      const rdf::Triple t = random_triple();
      ASSERT_TRUE(db->Insert(t).ok());
      oracle.insert(t);
    } else if (dice < 0.85) {
      const rdf::Triple t = random_triple();
      ASSERT_TRUE(db->Remove(t).ok());
      oracle.erase(t);
    } else if (dice < 0.92) {
      ASSERT_TRUE(db->Compact().ok());
    } else {
      // Close-and-reopen: the durability round trip under test.
      db.reset();  // "process exit" (clean: everything acked was synced)

      reopen();
      ++reopens;
      check_against_oracle();
    }
  }
  // Final reopen so the property is exercised at the very end state too.
  db.reset();

  reopen();
  ++reopens;
  check_against_oracle();
  ASSERT_GE(reopens, 10) << "rng drift: reopen arm barely exercised";
}

// The delta-aware merge join: with a LIVE overlay (no compaction), the
// fast path must agree with the row-by-row path on star joins over
// randomized interleaved writes — covering tombstoned base triples,
// delta-only subjects, and const-object / const-literal probes — and the
// ExecutorStats counters must prove it actually ran against the delta.
TEST(EngineAgreementModes, MergeJoinAgreesWithRowPathUnderLiveDelta) {
  Rng rng(31337);
  const int kSubjects = 30;
  const int kPredicates = 4;
  const int kObjects = 20;

  const auto random_triple_over = [&](int subject_space) -> rdf::Triple {
    const std::string s = Iri("s", rng.Uniform(subject_space));
    const uint64_t kind = rng.Uniform(4);
    if (kind == 0) {
      return {rdf::Term::Iri(s), rdf::Term::Iri(rdf::kRdfType),
              rdf::Term::Iri(Iri("C", rng.Uniform(4)))};
    }
    if (kind == 1) {
      return {rdf::Term::Iri(s), rdf::Term::Iri(Iri("dp", rng.Uniform(3))),
              rdf::Term::Literal(std::to_string(rng.Uniform(10)))};
    }
    return {rdf::Term::Iri(s),
            rdf::Term::Iri(Iri("p", rng.Uniform(kPredicates))),
            rdf::Term::Iri(Iri("o", rng.Uniform(kObjects)))};
  };
  const auto random_triple = [&]() { return random_triple_over(kSubjects); };

  // Seed over the lower half of the subject space; the upper half enters
  // only through the overlay (delta-only subject runs).
  rdf::Graph seed;
  for (uint64_t p = 0; p < kPredicates; ++p) {
    seed.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(Iri("p", p)),
             rdf::Term::Iri(Iri("o", 0)));
  }
  for (uint64_t p = 0; p < 3; ++p) {
    seed.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(Iri("dp", p)),
             rdf::Term::Literal("0"));
  }
  for (uint64_t c = 0; c < 4; ++c) {
    seed.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(rdf::kRdfType),
             rdf::Term::Iri(Iri("C", c)));
  }
  for (int i = 0; i < 150; ++i) seed.Add(random_triple_over(kSubjects / 2));

  Database db;
  ASSERT_TRUE(db.LoadData(seed).ok());
  db.set_reasoning(false);
  db.set_compaction_ratio(0);  // the delta must stay live throughout

  const auto star_query = [&]() {
    // Subject-bound star: the first TP binds ?a, the rest extend it —
    // exactly the merge-join shape. Objects are fresh vars or constants
    // (resource and literal probes both).
    std::string where = "?a <" + Iri("p", rng.Uniform(kPredicates)) +
                        "> ?b . ";
    const int extra = 1 + static_cast<int>(rng.Uniform(3));
    for (int t = 0; t < extra; ++t) {
      // The first extension is always a regular TP so that every query
      // holds two mergeable patterns: whichever the optimizer runs
      // second is subject-bound and must take the fast path.
      const uint64_t pk = t == 0 ? rng.Uniform(2) : rng.Uniform(3);
      if (pk == 0) {
        where += "?a <" + Iri("p", rng.Uniform(kPredicates)) + "> " +
                 (rng.Bernoulli(0.5)
                      ? "?c" + std::to_string(t)
                      : "<" + Iri("o", rng.Uniform(kObjects)) + ">") +
                 " . ";
      } else if (pk == 1) {
        where += "?a <" + Iri("dp", rng.Uniform(3)) + "> " +
                 (rng.Bernoulli(0.5)
                      ? "?d" + std::to_string(t)
                      : "\"" + std::to_string(rng.Uniform(10)) + "\"") +
                 " . ";
      } else {
        where += "?a a <" + Iri("C", rng.Uniform(4)) + "> . ";
      }
    }
    return "SELECT * WHERE { " + where + "}";
  };

  for (int round = 0; round < 12; ++round) {
    // A fresh slice of interleaved writes per round: inserts biased to
    // the delta-only upper subject half, removes tombstoning the base.
    for (int step = 0; step < 30; ++step) {
      const rdf::Triple t = random_triple();
      if (rng.Bernoulli(0.7)) {
        ASSERT_TRUE(db.Insert(t).ok());
      } else {
        ASSERT_TRUE(db.Remove(t).ok());
      }
    }
    ASSERT_TRUE(db.store().has_delta()) << "round " << round;

    uint64_t round_delta_extends = 0;
    for (int trial = 0; trial < 8; ++trial) {
      const std::string sparql = star_query();
      db.set_merge_join(true);
      db.reset_query_stats();
      const auto fast = db.QueryCount(sparql);
      ASSERT_TRUE(fast.ok()) << sparql;
      if (fast.value() > 0) {
        // Non-empty result: every TP ran, so the second mergeable
        // pattern must have taken the fast path against the live delta.
        ASSERT_GT(db.query_stats().merge_join_delta_extends, 0u)
            << "fast path skipped under live delta: " << sparql;
      }
      round_delta_extends += db.query_stats().merge_join_delta_extends;
      db.set_merge_join(false);
      const auto slow = db.QueryCount(sparql);
      ASSERT_TRUE(slow.ok()) << sparql;
      ASSERT_EQ(fast.value(), slow.value())
          << "round " << round << ", disagreement on: " << sparql;
    }
    ASSERT_GT(round_delta_extends, 0u)
        << "round " << round << " never exercised the delta-aware sweep";
    db.set_merge_join(true);
  }
}

// Schema-evolution property test: a random stream that keeps minting
// never-before-seen predicates and classes, interleaved with known-term
// writes, removes, sync/async compactions (the epoch re-encode) and
// device close-and-reopen cycles. At every checkpoint of the walk the
// store must agree with a naive oracle — an RDF4J-like store rebuilt from
// the live triple set — on random BGP queries that mix novel and
// bootstrap vocabulary; after each compaction the re-encoded terms must
// additionally answer reasoning (owl:Thing subsumption) queries exactly
// like a from-scratch sedge build of the same data, i.e. identically to
// bootstrap-ontology terms.
TEST(SchemaEvolutionProperty, NovelVocabularyStreamMatchesOracle) {
  Rng rng(20260731);
  const int kSubjects = 16;
  const int kKnownPreds = 3;
  const int kKnownClasses = 3;
  // The novel vocabulary pool grows as the walk mints terms; queries draw
  // from the minted prefix so novel predicates appear in queries too.
  int minted_preds = 0;
  int minted_classes = 0;

  ontology::Ontology onto;
  for (int c = 0; c < kKnownClasses; ++c) {
    onto.AddSubClassOf(Iri("C", c), rdf::kOwlThing);
  }
  for (int p = 0; p < kKnownPreds; ++p) {
    onto.AddProperty(Iri("p", p), ontology::PropertyKind::kObject);
  }
  onto.AddProperty(Iri("dp", 0), ontology::PropertyKind::kDatatype);

  const auto random_triple = [&]() -> rdf::Triple {
    const std::string s = Iri("s", rng.Uniform(kSubjects));
    const uint64_t kind = rng.Uniform(6);
    const bool novel = rng.Bernoulli(0.3);
    if (kind == 0) {
      std::string c;
      if (novel && rng.Bernoulli(0.5)) {
        c = Iri("NC", minted_classes++);
      } else if (novel && minted_classes > 0) {
        c = Iri("NC", rng.Uniform(minted_classes));
      } else {
        c = Iri("C", rng.Uniform(kKnownClasses));
      }
      return {rdf::Term::Iri(s), rdf::Term::Iri(rdf::kRdfType),
              rdf::Term::Iri(c)};
    }
    if (kind == 1) {
      const std::string p =
          novel ? Iri("ndp", rng.Uniform(3)) : Iri("dp", 0);
      return {rdf::Term::Iri(s), rdf::Term::Iri(p),
              rdf::Term::Literal(std::to_string(rng.Uniform(8)))};
    }
    std::string p;
    if (novel && rng.Bernoulli(0.4)) {
      p = Iri("np", minted_preds++);
    } else if (novel && minted_preds > 0) {
      p = Iri("np", rng.Uniform(minted_preds));
    } else {
      p = Iri("p", rng.Uniform(kKnownPreds));
    }
    return {rdf::Term::Iri(s), rdf::Term::Iri(p),
            rdf::Term::Iri(Iri("o", rng.Uniform(12)))};
  };

  // Bootstrap base over the known vocabulary only.
  rdf::Graph seed;
  for (int p = 0; p < kKnownPreds; ++p) {
    seed.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(Iri("p", p)),
             rdf::Term::Iri(Iri("o", 0)));
  }
  seed.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(Iri("dp", 0)),
           rdf::Term::Literal("0"));
  for (int c = 0; c < kKnownClasses; ++c) {
    seed.Add(rdf::Term::Iri(Iri("s", 0)), rdf::Term::Iri(rdf::kRdfType),
             rdf::Term::Iri(Iri("C", c)));
  }

  // Only the device survives reopen cycles.
  io::SimulatedBlockDevice device;
  std::unique_ptr<Database> db;
  bool provisioned = false;
  const auto reopen = [&]() {
    Database::OpenOptions options;
    options.wal_capacity_blocks = 128;
    options.bootstrap_ontology = onto;
    auto opened = Database::Open(&device, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(opened).value();
    db->set_reasoning(false);
    db->set_compaction_ratio(0);  // the walk owns the compaction points
    if (!provisioned) {
      ASSERT_TRUE(db->LoadData(seed).ok());
      provisioned = true;
    }
  };
  reopen();

  std::set<rdf::Triple> oracle;
  for (const rdf::Triple& t : seed.triples()) oracle.insert(t);

  const auto random_query = [&]() {
    std::string where;
    const int tps = 1 + static_cast<int>(rng.Uniform(2));
    for (int t = 0; t < tps; ++t) {
      const std::string s = rng.Bernoulli(0.6)
                                ? "?v" + std::to_string(rng.Uniform(2))
                                : "<" + Iri("s", rng.Uniform(kSubjects)) + ">";
      std::string p, o;
      const uint64_t pk = rng.Uniform(4);
      if (pk == 0) {
        p = "<" + std::string(rdf::kRdfType) + ">";
        const bool use_novel = minted_classes > 0 && rng.Bernoulli(0.5);
        o = rng.Bernoulli(0.4)
                ? "?v" + std::to_string(2 + rng.Uniform(2))
                : (use_novel
                       ? "<" + Iri("NC", rng.Uniform(minted_classes)) + ">"
                       : "<" + Iri("C", rng.Uniform(kKnownClasses)) + ">");
      } else if (pk == 1) {
        p = rng.Bernoulli(0.5) ? "<" + Iri("dp", 0) + ">"
                               : "<" + Iri("ndp", rng.Uniform(3)) + ">";
        o = rng.Bernoulli(0.5) ? "?v" + std::to_string(2 + rng.Uniform(2))
                               : "\"" + std::to_string(rng.Uniform(8)) + "\"";
      } else {
        const bool use_novel = minted_preds > 0 && rng.Bernoulli(0.5);
        p = use_novel ? "<" + Iri("np", rng.Uniform(minted_preds)) + ">"
                      : "<" + Iri("p", rng.Uniform(kKnownPreds)) + ">";
        o = rng.Bernoulli(0.5) ? "?v" + std::to_string(2 + rng.Uniform(2))
                               : "<" + Iri("o", rng.Uniform(12)) + ">";
      }
      where += s + " " + p + " " + o + " . ";
    }
    return "SELECT * WHERE { " + where + "}";
  };

  const auto check_against_oracle = [&]() {
    ASSERT_EQ(db->num_triples(), oracle.size());
    rdf::Graph live;
    for (const rdf::Triple& t : oracle) live.Add(t);
    baselines::Rdf4jLikeStore reference;
    ASSERT_TRUE(reference.Build(live).ok());
    baselines::BaselineEngine reference_engine(&reference);
    for (int trial = 0; trial < 5; ++trial) {
      const std::string sparql = random_query();
      auto parsed = sparql::ParseQuery(sparql);
      ASSERT_TRUE(parsed.ok()) << sparql;
      const auto expected = reference_engine.ExecuteCount(parsed.value());
      ASSERT_TRUE(expected.ok()) << sparql;
      const auto got = db->QueryCount(sparql);
      ASSERT_TRUE(got.ok()) << sparql << ": " << got.status().ToString();
      ASSERT_EQ(got.value(), expected.value())
          << "disagreement on: " << sparql;
    }
  };

  // Reasoning check after a re-encode: the streamed store must answer
  // subsumption queries exactly like a from-scratch sedge build (whose
  // dictionary treats every term as bootstrap vocabulary).
  const auto check_reasoning_against_fresh_build = [&]() {
    // Terms admitted while a fold was in flight are still provisional —
    // inference over them is deferred until *their* re-encode, so drain
    // the registry before comparing reasoning answers.
    while (db->store().has_pending_schema()) {
      ASSERT_TRUE(db->Compact().ok());
    }
    rdf::Graph live;
    for (const rdf::Triple& t : oracle) live.Add(t);
    Database fresh;
    fresh.LoadOntology(onto);
    ASSERT_TRUE(fresh.LoadData(live).ok());
    db->set_reasoning(true);
    const std::string thing_query =
        "SELECT ?s WHERE { ?s a <" + std::string(rdf::kOwlThing) + "> }";
    const std::string top_query = "SELECT * WHERE { ?s <" +
                                  std::string(rdf::kOwlTopObjectProperty) +
                                  "> ?o }";
    for (const std::string& q :
         std::vector<std::string>{thing_query, top_query}) {
      const auto got = db->QueryCount(q);
      const auto want = fresh.QueryCount(q);
      ASSERT_TRUE(got.ok() && want.ok()) << q;
      ASSERT_EQ(got.value(), want.value())
          << "post-re-encode reasoning disagreement on: " << q;
    }
    db->set_reasoning(false);
  };

  int compactions = 0;
  int reopens = 0;
  for (int step = 0; step < 320; ++step) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < 55) {
      const rdf::Triple t = random_triple();
      ASSERT_TRUE(db->Insert(t).ok());
      oracle.insert(t);
    } else if (dice < 80) {
      const rdf::Triple t = random_triple();
      ASSERT_TRUE(db->Remove(t).ok());
      oracle.erase(t);
    } else if (dice < 87) {
      // The epoch re-encode, riding the background-compaction fork/swap.
      ASSERT_TRUE(db->CompactAsync().ok());
      if (rng.Bernoulli(0.5)) {
        const rdf::Triple t = random_triple();  // write during the fold
        ASSERT_TRUE(db->Insert(t).ok());
        oracle.insert(t);
      }
      ASSERT_TRUE(db->WaitForCompaction().ok());
      ++compactions;
      check_reasoning_against_fresh_build();
    } else if (dice < 92) {
      ASSERT_TRUE(db->Compact().ok());
      ++compactions;
      check_reasoning_against_fresh_build();
    } else {
      db.reset();  // power cut: device-only recovery

      reopen();
      ++reopens;
      check_against_oracle();
    }
    if (step % 40 == 19) check_against_oracle();
  }
  db.reset();

  reopen();
  ++reopens;
  check_against_oracle();
  ASSERT_TRUE(db->Compact().ok());
  check_reasoning_against_fresh_build();
  ASSERT_GE(compactions, 10) << "rng drift: re-encode arm barely exercised";
  ASSERT_GE(reopens, 10) << "rng drift: reopen arm barely exercised";
}

// Merge join on/off must agree on every random query too.
TEST(EngineAgreementModes, MergeJoinAndOptimizerOnOffAgree) {
  Rng rng(99);
  rdf::Graph graph;
  for (int i = 0; i < 800; ++i) {
    graph.Add(rdf::Term::Iri(Iri("s", rng.Uniform(40))),
              rdf::Term::Iri(Iri("p", rng.Uniform(5))),
              rdf::Term::Iri(Iri("o", rng.Uniform(40))));
  }
  Database db;
  ASSERT_TRUE(db.LoadData(graph).ok());
  for (int trial = 0; trial < 20; ++trial) {
    const std::string q = "SELECT * WHERE { ?a <" + Iri("p", rng.Uniform(5)) +
                          "> ?b . ?b <" + Iri("p", rng.Uniform(5)) +
                          "> ?c . ?a <" + Iri("p", rng.Uniform(5)) + "> ?d }";
    uint64_t counts[4];
    int i = 0;
    for (const bool merge : {true, false}) {
      for (const bool opt : {true, false}) {
        db.set_merge_join(merge);
        db.set_optimizer(opt);
        const auto r = db.QueryCount(q);
        ASSERT_TRUE(r.ok());
        counts[i++] = r.value();
      }
    }
    EXPECT_EQ(counts[0], counts[1]) << q;
    EXPECT_EQ(counts[0], counts[2]) << q;
    EXPECT_EQ(counts[0], counts[3]) << q;
  }
}

}  // namespace
}  // namespace sedge
