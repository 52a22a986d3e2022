#pragma once
/// \file io.hpp
/// \brief Plain-text persistence for graphs and datasets, so externally
///        prepared graphs (e.g. the real Reddit/Yelp exports) can be run
///        through the same pipeline, and generated datasets can be frozen
///        for exact cross-machine reproduction.
///
/// Formats are deliberately simple:
///  * edge list — one `u v` pair per line, `#` comments, node count
///    inferred as max id + 1 (or given explicitly);
///  * dataset directory — `graph.edges`, `features.csv` (one row per
///    node), `labels.txt`, `splits.txt` (lines `train|val|test <id>...`),
///    `meta.txt` (name and class count).

#include <string>

#include "scgnn/graph/dataset.hpp"
#include "scgnn/graph/graph.hpp"

namespace scgnn::graph {

/// Write the undirected edge list of `g` (`u v` with u < v, one per line).
void write_edge_list(const Graph& g, const std::string& path);

/// Read an edge list. When `num_nodes` is 0 the node count is inferred as
/// (max id + 1). Throws scgnn::Error on malformed lines or I/O failure.
[[nodiscard]] Graph read_edge_list(const std::string& path,
                                   std::uint32_t num_nodes = 0);

/// Persist a full dataset into `dir` (created if missing).
void save_dataset(const Dataset& dataset, const std::string& dir);

/// Load a dataset previously written by save_dataset. Validates shape
/// consistency (feature rows == nodes == labels).
[[nodiscard]] Dataset load_dataset(const std::string& dir);

} // namespace scgnn::graph
