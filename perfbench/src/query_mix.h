#ifndef NOUS_PERFBENCH_QUERY_MIX_H_
#define NOUS_PERFBENCH_QUERY_MIX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/property_graph.h"
#include "qa/query.h"

namespace nous {
namespace perfbench {

/// The benchmark's per-class buckets of Figure 5: "explain A and B"
/// and "paths from A to B via P" both land in kExplain.
enum class QueryClass { kEntity, kExplain, kTrending, kPattern };
constexpr size_t kNumQueryClasses = 4;

const char* QueryClassName(QueryClass c);
QueryClass ClassOf(QueryKind kind);

struct MixQuery {
  QueryClass cls = QueryClass::kEntity;
  std::string text;
};

/// What the query mix may ask about one KG: entity labels that
/// resolve (ranked by degree, so Zipf rank 0 is the busiest hub),
/// "explain" pairs two hops apart with at least one path between
/// them, and "paths ... via P" triples whose P is the second hop's
/// predicate. Every entry round-trips through ParseQuery to the same
/// labels, so no generated query can fail to parse or resolve.
struct QueryTargets {
  std::vector<std::string> entities;
  std::vector<std::pair<std::string, std::string>> explain_pairs;
  struct Search {
    std::string from, to, via;
  };
  std::vector<Search> searches;
};

/// Scans `graph` (a served snapshot's graph) for targets. Seeded:
/// the same graph and seed give the same targets.
QueryTargets FindQueryTargets(const PropertyGraph& graph, uint64_t seed,
                              size_t max_pairs = 16);

/// Class shares of the entity-heavy mix, in percent: the Figure-5 mix
/// of bench/bench_query_serving.cc (entity 60, explain 20, trending 10,
/// patterns 10), its explain share split evenly between "explain A and
/// B" and "paths from A to B via P".
struct MixShares {
  unsigned entity = 60;
  unsigned explain = 10;
  unsigned search = 10;
  unsigned trending = 10;
  unsigned pattern = 10;
};

/// `count` queries drawn from `targets`: classes by `shares`,
/// entities Zipf(1.0)-skewed over their degree rank, pairs uniform.
std::vector<MixQuery> GenerateQueries(const QueryTargets& targets,
                                      size_t count, uint64_t seed,
                                      MixShares shares = {});

}  // namespace perfbench
}  // namespace nous

#endif  // NOUS_PERFBENCH_QUERY_MIX_H_
