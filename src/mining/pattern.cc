#include "mining/pattern.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace nous {

Pattern Pattern::Canonicalize(
    const std::vector<ConcreteEdge>& edges,
    const std::function<TypeId(uint64_t)>& vertex_label,
    std::vector<uint64_t>* position_to_vertex) {
  Canonicalizer canonicalizer;
  for (const ConcreteEdge& e : edges) {
    canonicalizer.Add(e.src, e.pred, e.dst);
  }
  canonicalizer.Run(vertex_label);
  if (position_to_vertex != nullptr) {
    *position_to_vertex = canonicalizer.position_to_vertex();
  }
  return canonicalizer.pattern();
}

void Pattern::Canonicalizer::Clear() {
  vertices_.clear();
  edges_.clear();
}

uint32_t Pattern::Canonicalizer::Intern(uint64_t vertex) {
  for (uint32_t i = 0; i < vertices_.size(); ++i) {
    if (vertices_[i] == vertex) return i;
  }
  vertices_.push_back(vertex);
  return static_cast<uint32_t>(vertices_.size() - 1);
}

void Pattern::Canonicalizer::Add(uint64_t src, PredicateId pred,
                                 uint64_t dst) {
  uint32_t s = Intern(src);
  uint32_t d = Intern(dst);
  edges_.push_back(LocalEdge{s, pred, d});
}

bool Pattern::Canonicalizer::Build(const Code* best, Code* candidate,
                                   bool* less) {
  // Variables are numbered by first appearance along the ordering.
  std::fill(var_of_.begin(), var_of_.end(), -1);
  candidate->vertex_of_var.clear();
  auto var = [this, candidate](uint32_t v) {
    if (var_of_[v] < 0) {
      var_of_[v] = static_cast<int>(candidate->vertex_of_var.size());
      candidate->vertex_of_var.push_back(v);
    }
    return var_of_[v];
  };
  bool smaller = false;
  for (size_t i = 0; i < order_.size(); ++i) {
    const LocalEdge& e = edges_[order_[i]];
    int s = var(e.src);
    int d = var(e.dst);
    PatternEdge code{s, e.pred, d};
    candidate->edges[i] = code;
    if (best == nullptr || smaller) continue;
    const PatternEdge& b = best->edges[i];
    if (code.src != b.src) {
      if (code.src > b.src) return false;
      smaller = true;
    } else if (code.pred != b.pred) {
      if (code.pred > b.pred) return false;
      smaller = true;
    } else if (code.dst != b.dst) {
      if (code.dst > b.dst) return false;
      smaller = true;
    }
  }
  *less = smaller;
  return true;
}

bool Pattern::Canonicalizer::LabelsLess(const Code& a, const Code& b) const {
  // Every ordering assigns a variable to every vertex, so both label
  // sequences have vertices_.size() entries.
  for (size_t var = 0; var < a.vertex_of_var.size(); ++var) {
    TypeId la = labels_[a.vertex_of_var[var]];
    TypeId lb = labels_[b.vertex_of_var[var]];
    if (la != lb) return la < lb;
  }
  return false;
}

void Pattern::Canonicalizer::Run(
    const std::function<TypeId(uint64_t)>& vertex_label) {
  NOUS_CHECK(!edges_.empty());
  const size_t n = edges_.size();
  labels_.resize(vertices_.size());
  for (size_t i = 0; i < vertices_.size(); ++i) {
    labels_[i] = vertex_label(vertices_[i]);
  }
  var_of_.resize(vertices_.size());
  best_.edges.resize(n);
  candidate_.edges.resize(n);
  order_.resize(n);
  for (uint32_t i = 0; i < n; ++i) order_[i] = i;
  // Try every edge ordering and keep the smallest code: edges
  // lexicographically, then the variables' labels. Ties keep the
  // earlier ordering.
  bool less = false;
  Build(nullptr, &best_, &less);
  while (std::next_permutation(order_.begin(), order_.end())) {
    if (!Build(&best_, &candidate_, &less)) continue;
    if (less || LabelsLess(candidate_, best_)) {
      std::swap(best_, candidate_);
    }
  }
  pattern_.edges_.assign(best_.edges.begin(), best_.edges.end());
  pattern_.vertex_labels_.resize(best_.vertex_of_var.size());
  mapping_.resize(best_.vertex_of_var.size());
  for (size_t var = 0; var < best_.vertex_of_var.size(); ++var) {
    pattern_.vertex_labels_[var] = labels_[best_.vertex_of_var[var]];
    mapping_[var] = vertices_[best_.vertex_of_var[var]];
  }
}

bool Pattern::Contains(const Pattern& sub) const {
  if (sub.num_edges() > num_edges()) return false;
  // Try every injective assignment of sub edges onto our edges with a
  // consistent variable mapping. Pattern sizes are tiny.
  std::vector<bool> used(edges_.size(), false);
  std::vector<int> var_map(sub.num_vertices(), -1);

  std::function<bool(size_t)> match = [&](size_t i) -> bool {
    if (i == sub.edges_.size()) return true;
    const PatternEdge& se = sub.edges_[i];
    for (size_t j = 0; j < edges_.size(); ++j) {
      if (used[j]) continue;
      const PatternEdge& pe = edges_[j];
      if (pe.pred != se.pred) continue;
      int old_s = var_map[se.src];
      int old_d = var_map[se.dst];
      if (old_s != -1 && old_s != pe.src) continue;
      if (old_d != -1 && old_d != pe.dst) continue;
      // Label compatibility (invalid label matches anything equal).
      if (sub.vertex_labels_[se.src] != vertex_labels_[pe.src]) continue;
      if (sub.vertex_labels_[se.dst] != vertex_labels_[pe.dst]) continue;
      // Injectivity on variables.
      bool clash = false;
      for (int v = 0; v < static_cast<int>(var_map.size()); ++v) {
        if (v != se.src && var_map[v] == pe.src) clash = true;
        if (v != se.dst && var_map[v] == pe.dst) clash = true;
      }
      if (clash) continue;
      used[j] = true;
      var_map[se.src] = pe.src;
      var_map[se.dst] = pe.dst;
      if (match(i + 1)) return true;
      used[j] = false;
      var_map[se.src] = old_s;
      var_map[se.dst] = old_d;
    }
    return false;
  };
  return match(0);
}

std::vector<Pattern> Pattern::SubPatterns() const {
  std::vector<Pattern> subs;
  if (edges_.size() <= 1) return subs;
  for (size_t drop = 0; drop < edges_.size(); ++drop) {
    std::vector<ConcreteEdge> rest;
    for (size_t i = 0; i < edges_.size(); ++i) {
      if (i == drop) continue;
      rest.push_back(ConcreteEdge{static_cast<uint64_t>(edges_[i].src),
                                  edges_[i].pred,
                                  static_cast<uint64_t>(edges_[i].dst)});
    }
    // Connectivity check over the remaining edges.
    std::vector<uint64_t> stack = {rest[0].src};
    std::vector<uint64_t> seen = {rest[0].src};
    while (!stack.empty()) {
      uint64_t v = stack.back();
      stack.pop_back();
      for (const ConcreteEdge& e : rest) {
        for (uint64_t next : {e.src, e.dst}) {
          if ((e.src == v || e.dst == v) &&
              std::find(seen.begin(), seen.end(), next) == seen.end()) {
            seen.push_back(next);
            stack.push_back(next);
          }
        }
      }
    }
    std::vector<uint64_t> needed;
    for (const ConcreteEdge& e : rest) {
      for (uint64_t v : {e.src, e.dst}) {
        if (std::find(needed.begin(), needed.end(), v) == needed.end()) {
          needed.push_back(v);
        }
      }
    }
    if (seen.size() != needed.size()) continue;  // disconnected
    const std::vector<TypeId>& labels = vertex_labels_;
    Pattern sub = Canonicalize(
        rest,
        [&labels](uint64_t v) { return labels[static_cast<size_t>(v)]; });
    if (std::find(subs.begin(), subs.end(), sub) == subs.end()) {
      subs.push_back(std::move(sub));
    }
  }
  return subs;
}

std::string Pattern::ToString(const Dictionary& predicates,
                              const Dictionary* types) const {
  std::vector<std::string> parts;
  for (const PatternEdge& e : edges_) {
    std::string src_label, dst_label;
    if (types != nullptr && vertex_labels_[e.src] != kInvalidType) {
      src_label = ":" + types->GetString(vertex_labels_[e.src]);
    }
    if (types != nullptr && vertex_labels_[e.dst] != kInvalidType) {
      dst_label = ":" + types->GetString(vertex_labels_[e.dst]);
    }
    parts.push_back(StrFormat(
        "(?%d%s)-[%s]->(?%d%s)", e.src, src_label.c_str(),
        predicates.GetString(e.pred).c_str(), e.dst, dst_label.c_str()));
  }
  return Join(parts, " ");
}

size_t Pattern::Hash() const {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (const PatternEdge& e : edges_) {
    h = HashCombine(h, static_cast<size_t>(e.src));
    h = HashCombine(h, static_cast<size_t>(e.pred));
    h = HashCombine(h, static_cast<size_t>(e.dst));
  }
  for (TypeId t : vertex_labels_) h = HashCombine(h, t);
  return h;
}

}  // namespace nous
