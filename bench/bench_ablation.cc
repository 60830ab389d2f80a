// A — ablation study of the pipeline's design choices (DESIGN.md §5).
// Not a paper artifact: the paper asserts each component matters
// (coref heuristics, AIDA coherence, link-prediction confidence,
// distant supervision, source trust); this bench measures each
// component's marginal contribution to end-to-end KG quality on the
// same noisy corpus.
//
// Metrics (KG-level, against world ground truth):
//   recall    = gold events present in the fused KG under canonical
//               names and ontology predicates
//   precision = extracted ontology-predicate edges that correspond to
//               a true world fact
//   mean conf(true) / conf(false) = separation of the confidence
//               signal (higher gap = better calibration)

#include <benchmark/benchmark.h>

#include <iostream>
#include <set>
#include <string>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/nous.h"
#include "common/status.h"

namespace nous {
namespace {

struct AblationResult {
  double recall = 0;
  double precision = 0;
  double conf_true = 0;
  double conf_false = 0;
  /// P(conf(true edge) > conf(false edge)) over extracted ontology
  /// edges — how well the confidence signal ranks truth.
  double conf_auc = 0.5;
};

AblationResult Evaluate(const bench::DroneFixture& fixture,
                        Nous::Options options) {
  Nous nous(&fixture.kb, options);
  for (const Article& article : fixture.articles) NOUS_CHECK_OK(nous.Ingest(article));
  NOUS_CHECK_OK(nous.Finalize());
  const PropertyGraph& g = nous.graph();

  // Ground-truth fact set, canonical names + ontology predicate.
  std::set<std::string> truth;
  for (const WorldFact& f : fixture.world.facts()) {
    truth.insert(fixture.world.entity(f.subject).name + "|" +
                 f.predicate + "|" +
                 fixture.world.entity(f.object).name);
  }

  size_t gold_total = 0, recovered = 0;
  for (const Article& article : fixture.articles) {
    for (const TimedTriple& gold : article.gold) {
      ++gold_total;
      auto s = g.FindVertex(gold.triple.subject);
      auto o = g.FindVertex(gold.triple.object);
      auto p = g.predicates().Lookup(gold.triple.predicate);
      if (s && o && p && g.HasEdge(*s, *p, *o)) ++recovered;
    }
  }

  size_t extracted = 0, correct = 0;
  std::vector<double> true_confs, false_confs;
  g.ForEachEdge([&](EdgeId, const EdgeRecord& rec) {
    if (rec.meta.curated) return;
    const std::string& pred = g.predicates().GetString(rec.predicate);
    if (StartsWith(pred, "raw:")) return;  // unmapped residue
    ++extracted;
    std::string key = g.VertexLabel(rec.subject) + "|" + pred + "|" +
                      g.VertexLabel(rec.object);
    if (truth.count(key) > 0) {
      ++correct;
      true_confs.push_back(rec.meta.confidence);
    } else {
      false_confs.push_back(rec.meta.confidence);
    }
  });

  AblationResult result;
  if (gold_total > 0) {
    result.recall = static_cast<double>(recovered) /
                    static_cast<double>(gold_total);
  }
  if (extracted > 0) {
    result.precision =
        static_cast<double>(correct) / static_cast<double>(extracted);
  }
  for (double c : true_confs) result.conf_true += c;
  for (double c : false_confs) result.conf_false += c;
  if (!true_confs.empty()) result.conf_true /= true_confs.size();
  if (!false_confs.empty()) result.conf_false /= false_confs.size();
  if (!true_confs.empty() && !false_confs.empty()) {
    double wins = 0;
    for (double t : true_confs) {
      for (double f : false_confs) {
        if (t > f) {
          wins += 1;
        } else if (t == f) {
          wins += 0.5;
        }
      }
    }
    result.conf_auc =
        wins / (static_cast<double>(true_confs.size()) *
                static_cast<double>(false_confs.size()));
  }
  return result;
}

void RunAblation() {
  bench::PrintHeader(
      "Ablation: pipeline design choices",
      "DESIGN.md §5 (component contributions; no single paper artifact)",
      "End-to-end KG quality with one component removed at a time.");

  CorpusConfig noisy;
  noisy.pronoun_rate = 0.5;
  noisy.alias_rate = 0.3;
  noisy.passive_rate = 0.3;
  noisy.distractor_rate = 0.6;
  auto fixture = bench::MakeDroneFixture(500, 19, 0.6, noisy);

  Nous::Options full;
  full.pipeline.lda.iterations = 30;
  full.pipeline.bpr.epochs = 10;

  struct Variant {
    std::string name;
    Nous::Options options;
  };
  std::vector<Variant> variants;
  variants.push_back({"full pipeline", full});
  {
    Nous::Options v = full;
    v.pipeline.extraction.use_coref = false;
    variants.push_back({"- coreference", v});
  }
  {
    Nous::Options v = full;
    v.pipeline.linker.coherence_weight = 0;
    variants.push_back({"- AIDA joint coherence", v});
  }
  {
    Nous::Options v = full;
    v.pipeline.linker.context_weight = 0;
    v.pipeline.linker.prior_weight = 1.0;
    variants.push_back({"- context similarity (prior only)", v});
  }
  {
    Nous::Options v = full;
    v.pipeline.enable_link_prediction = false;
    variants.push_back({"- BPR confidence", v});
  }
  {
    Nous::Options v = full;
    v.pipeline.enable_distant_supervision = false;
    variants.push_back({"- distant supervision", v});
  }
  {
    Nous::Options v = full;
    v.pipeline.enable_source_trust = false;
    variants.push_back({"- source trust", v});
  }
  {
    Nous::Options v = full;
    v.pipeline.extraction.require_entity_object = true;
    v.pipeline.extraction.allow_nary = false;
    variants.push_back({"+ strict extraction", v});
  }

  TablePrinter table({"variant", "recall", "precision",
                      "conf(true)", "conf(false)", "conf AUC"});
  for (const Variant& variant : variants) {
    AblationResult r = Evaluate(fixture, variant.options);
    table.AddRow({variant.name, TablePrinter::Num(r.recall, 3),
                  TablePrinter::Num(r.precision, 3),
                  TablePrinter::Num(r.conf_true, 3),
                  TablePrinter::Num(r.conf_false, 3),
                  TablePrinter::Num(r.conf_auc, 3)});
  }
  table.Print(std::cout);
  std::cout << "\nShape to check: removing coref costs recall (its "
               "extra tuples also cost some precision); confidence AUC "
               "stays above 0.5 so thresholding suppresses more false "
               "facts than true ones.\n";
}

/// Linking-focused ablation on an alias-stressed world: many companies
/// carry a short alias colliding with a city name, and the corpus uses
/// aliases aggressively. Disambiguation quality now shows up directly
/// in KG recall/precision.
void RunLinkingAblation() {
  std::cout << "\n-- linking ablation (alias-stressed corpus) --\n";
  DroneWorldConfig wc;
  wc.num_companies = 30;
  wc.num_people = 20;
  wc.num_products = 15;
  wc.num_events = 500;
  wc.seed = 29;
  wc.shared_alias_rate = 0.6;  // most companies have ambiguous aliases
  WorldModel world = WorldModel::BuildDroneWorld(wc);
  KbCoverage coverage;
  coverage.entity_coverage = 0.7;
  // Fresh custom domain: no popularity statistics to lean on — the
  // setting the paper targets ("most enterprises and academic
  // institutions" lack curated popularity signals).
  coverage.flat_priors = true;
  CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(), coverage);
  CorpusConfig corpus;
  corpus.alias_rate = 0.8;
  corpus.pronoun_rate = 0.2;
  bench::DroneFixture fixture{std::move(world), std::move(kb), {}};
  fixture.articles =
      ArticleGenerator(&fixture.world, corpus).GenerateArticles();

  Nous::Options full;
  full.pipeline.lda.iterations = 30;
  full.pipeline.bpr.epochs = 10;

  TablePrinter table({"variant", "recall", "precision"});
  auto row = [&](const std::string& name, Nous::Options options) {
    AblationResult r = Evaluate(fixture, options);
    table.AddRow({name, TablePrinter::Num(r.recall, 3),
                  TablePrinter::Num(r.precision, 3)});
  };
  row("full linker", full);
  {
    Nous::Options v = full;
    v.pipeline.linker.context_weight = 0;
    v.pipeline.linker.prior_weight = 1.0;
    row("- context similarity (prior only)", v);
  }
  {
    Nous::Options v = full;
    v.pipeline.linker.coherence_weight = 0;
    row("- AIDA joint coherence", v);
  }
  {
    Nous::Options v = full;
    v.pipeline.linker.context_weight = 0;
    v.pipeline.linker.coherence_weight = 0;
    v.pipeline.linker.prior_weight = 1.0;
    row("prior only, no coherence", v);
  }
  table.Print(std::cout);
  std::cout << "\nMeasured finding (recorded in EXPERIMENTS.md): on this "
               "corpus the variants sit within ~0.03 of each other — "
               "the synthetic articles are 3-5 templated sentences, so "
               "the document context AIDA keys on is far weaker than "
               "in real news prose; coherence without context scores "
               "worst. The linker unit suite demonstrates the "
               "mechanics on context-rich cases "
               "(ContextDisambiguatesHomonym, "
               "NeighborhoodContextGrowsWithDynamicKg).\n";
}

/// Mention-level disambiguation accuracy — the cleanest AIDA metric:
/// the linker alone, against the corpus's gold (surface, canonical)
/// pairs, no extraction noise in the loop.
void RunMentionAccuracy() {
  std::cout << "\n-- mention-level disambiguation accuracy "
               "(alias-stressed, flat priors) --\n";
  DroneWorldConfig wc;
  wc.num_companies = 30;
  wc.num_people = 20;
  wc.num_products = 15;
  wc.num_events = 500;
  wc.seed = 31;
  wc.shared_alias_rate = 0.7;
  WorldModel world = WorldModel::BuildDroneWorld(wc);
  KbCoverage coverage;
  coverage.entity_coverage = 1.0;  // isolate disambiguation from NIL
  coverage.flat_priors = true;
  CuratedKb kb = BuildCuratedKb(world, Ontology::DroneDefault(),
                                coverage);
  CorpusConfig corpus;
  corpus.alias_rate = 0.9;
  corpus.pronoun_rate = 0.0;
  auto articles = ArticleGenerator(&world, corpus).GenerateArticles();
  Lexicon lexicon = Lexicon::Default();

  auto accuracy_of = [&](LinkerConfig config) {
    PropertyGraph graph;
    EntityLinker linker(&graph, config);
    // Load curated entities the way the pipeline does.
    for (const KbEntity& e : kb.entities()) {
      VertexId v = graph.GetOrAddVertex(e.name);
      graph.SetVertexType(v, graph.types().Intern(e.type_name));
      for (const std::string& term : e.context_terms) {
        graph.AddVertexTerm(v, graph.terms().Intern(ToLower(term)));
      }
      std::vector<std::string> surfaces = e.aliases;
      surfaces.push_back(e.name);
      linker.RegisterEntity(v, surfaces, e.prior);
    }
    // Curated facts give the coherence stage a neighborhood to use.
    for (const KbFact& f : kb.facts()) {
      VertexId s = *graph.FindVertex(kb.entities()[f.subject].name);
      VertexId o = *graph.FindVertex(kb.entities()[f.object].name);
      graph.AddEdge(s, graph.predicates().Intern(f.predicate), o, {});
    }
    size_t total = 0, correct = 0;
    for (const Article& article : articles) {
      if (article.gold_mentions.empty()) continue;
      TermBag bag = BuildDocumentBag(article.text, lexicon);
      std::vector<std::string> surfaces;
      std::vector<EntityType> types;
      for (const GoldMention& m : article.gold_mentions) {
        surfaces.push_back(m.surface);
        types.push_back(EntityType::kMisc);
      }
      auto decisions = linker.LinkMentions(surfaces, types, bag);
      for (size_t i = 0; i < decisions.size(); ++i) {
        ++total;
        if (graph.VertexLabel(decisions[i].vertex) ==
            article.gold_mentions[i].canonical) {
          ++correct;
        }
      }
    }
    return total == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(total);
  };

  TablePrinter table({"variant", "mention accuracy"});
  LinkerConfig full;
  table.AddRow({"full linker", TablePrinter::Num(accuracy_of(full), 3)});
  LinkerConfig no_context = full;
  no_context.context_weight = 0;
  no_context.prior_weight = 1.0;
  table.AddRow({"- context similarity",
                TablePrinter::Num(accuracy_of(no_context), 3)});
  LinkerConfig no_coherence = full;
  no_coherence.coherence_weight = 0;
  table.AddRow({"- AIDA joint coherence",
                TablePrinter::Num(accuracy_of(no_coherence), 3)});
  LinkerConfig bare = no_context;
  bare.coherence_weight = 0;
  table.AddRow({"prior only (tie-broken arbitrarily)",
                TablePrinter::Num(accuracy_of(bare), 3)});
  table.Print(std::cout);
  std::cout << "\nMeasured finding: context similarity is worth "
               "+1.4-1.5 points of mention accuracy in both the with- "
               "and without-coherence columns. Joint coherence costs "
               "~1.6 points on this corpus — co-mentioned entities are "
               "mostly NOT yet related in the curated KB (articles "
               "report novel events), so neighborhood overlap is noise "
               "here; its default weight is therefore kept small. See "
               "EXPERIMENTS.md for discussion.\n";
}

}  // namespace
}  // namespace nous

int main(int argc, char** argv) {
  nous::RunAblation();
  nous::RunLinkingAblation();
  nous::RunMentionAccuracy();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
