#ifndef NOUS_GRAPH_GRAPH_IO_H_
#define NOUS_GRAPH_GRAPH_IO_H_

#include <iostream>
#include <memory>
#include <string>

#include "common/result.h"
#include "graph/property_graph.h"

namespace nous {

/// Serializes the graph to a line-oriented, tab-separated text format
/// (full fidelity: vertices with types/bags/topics, edges with
/// confidence, timestamp, source, curated flag), edges in id order so
/// loading reproduces their ids.
///
/// Format (fields are tab-separated; labels must not contain tabs or
/// newlines, which the writer rejects):
///   #nous-graph v1
///   V <label> <type|->
///   B <label> <term> <weight>
///   T <label> <p0> <p1> ...
///   E <subject> <predicate> <object> <conf> <ts> <source|-> <0|1>
Status SaveGraph(const PropertyGraph& graph, std::ostream& out);

/// Parses a graph written by SaveGraph. Malformed input yields
/// InvalidArgument naming the offending line.
Result<std::unique_ptr<PropertyGraph>> LoadGraph(std::istream& in);

/// File-path convenience wrappers.
Status SaveGraphToFile(const PropertyGraph& graph,
                       const std::string& path);
Result<std::unique_ptr<PropertyGraph>> LoadGraphFromFile(
    const std::string& path);

}  // namespace nous

#endif  // NOUS_GRAPH_GRAPH_IO_H_
