#include "scgnn/graph/io.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace scgnn::graph {
namespace {

std::ofstream open_out(const std::string& path) {
    std::ofstream out(path);
    SCGNN_CHECK(out.good(), "cannot open for writing: " + path);
    return out;
}

std::ifstream open_in(const std::string& path) {
    std::ifstream in(path);
    SCGNN_CHECK(in.good(), "cannot open for reading: " + path);
    return in;
}

bool is_comment_or_blank(const std::string& line) {
    for (char c : line) {
        if (c == '#') return true;
        if (!std::isspace(static_cast<unsigned char>(c))) return false;
    }
    return true;
}

} // namespace

void write_edge_list(const Graph& g, const std::string& path) {
    std::ofstream out = open_out(path);
    out << "# scgnn edge list: " << g.num_nodes() << " nodes, "
        << g.num_edges() << " edges\n";
    for (const Edge& e : g.edge_list()) out << e.u << ' ' << e.v << '\n';
    SCGNN_CHECK(out.good(), "write failed: " + path);
}

Graph read_edge_list(const std::string& path, std::uint32_t num_nodes) {
    std::ifstream in = open_in(path);
    std::vector<Edge> edges;
    std::uint32_t max_id = 0;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (is_comment_or_blank(line)) continue;
        std::istringstream ss(line);
        std::uint64_t u = 0, v = 0;
        SCGNN_CHECK(static_cast<bool>(ss >> u >> v),
                    "malformed edge on line " + std::to_string(line_no) +
                        " of " + path);
        SCGNN_CHECK(u <= 0xffffffffull && v <= 0xffffffffull,
                    "node id out of u32 range in " + path);
        edges.push_back({static_cast<std::uint32_t>(u),
                         static_cast<std::uint32_t>(v)});
        max_id = std::max({max_id, static_cast<std::uint32_t>(u),
                           static_cast<std::uint32_t>(v)});
    }
    const std::uint32_t n =
        num_nodes != 0 ? num_nodes : (edges.empty() ? 0 : max_id + 1);
    return Graph(n, edges);
}

void save_dataset(const Dataset& dataset, const std::string& dir) {
    std::filesystem::create_directories(dir);
    write_edge_list(dataset.graph, dir + "/graph.edges");

    {
        std::ofstream out = open_out(dir + "/features.csv");
        char buf[48];
        for (std::size_t r = 0; r < dataset.features.rows(); ++r) {
            const auto row = dataset.features.row(r);
            for (std::size_t c = 0; c < row.size(); ++c) {
                std::snprintf(buf, sizeof buf, "%.9g", row[c]);
                out << (c ? "," : "") << buf;
            }
            out << '\n';
        }
        SCGNN_CHECK(out.good(), "write failed: features.csv");
    }
    {
        std::ofstream out = open_out(dir + "/labels.txt");
        for (std::int32_t l : dataset.labels) out << l << '\n';
        SCGNN_CHECK(out.good(), "write failed: labels.txt");
    }
    {
        std::ofstream out = open_out(dir + "/splits.txt");
        auto emit = [&](const char* name,
                        const std::vector<std::uint32_t>& ids) {
            out << name;
            for (std::uint32_t id : ids) out << ' ' << id;
            out << '\n';
        };
        emit("train", dataset.train_mask);
        emit("val", dataset.val_mask);
        emit("test", dataset.test_mask);
        SCGNN_CHECK(out.good(), "write failed: splits.txt");
    }
    {
        std::ofstream out = open_out(dir + "/meta.txt");
        out << "name " << dataset.name << '\n'
            << "classes " << dataset.num_classes << '\n'
            << "feature_dim " << dataset.features.cols() << '\n';
        SCGNN_CHECK(out.good(), "write failed: meta.txt");
    }
}

Dataset load_dataset(const std::string& dir) {
    Dataset d;
    {
        std::ifstream in = open_in(dir + "/meta.txt");
        std::string key;
        while (in >> key) {
            if (key == "name")
                in >> d.name;
            else if (key == "classes")
                in >> d.num_classes;
            else {
                std::string skip;
                in >> skip;
            }
        }
        SCGNN_CHECK(d.num_classes >= 2, "meta.txt missing class count");
    }
    d.graph = read_edge_list(dir + "/graph.edges");

    {
        std::ifstream in = open_in(dir + "/features.csv");
        std::vector<float> values;
        std::size_t rows = 0, cols = 0;
        std::string line;
        while (std::getline(in, line)) {
            if (is_comment_or_blank(line)) continue;
            std::size_t this_cols = 0;
            std::istringstream ss(line);
            std::string cell;
            while (std::getline(ss, cell, ',')) {
                values.push_back(std::strtof(cell.c_str(), nullptr));
                ++this_cols;
            }
            if (cols == 0) cols = this_cols;
            SCGNN_CHECK(this_cols == cols, "ragged features.csv");
            ++rows;
        }
        SCGNN_CHECK(rows == d.graph.num_nodes(),
                    "features.csv row count does not match the graph");
        d.features = tensor::Matrix(rows, cols, std::move(values));
    }
    {
        std::ifstream in = open_in(dir + "/labels.txt");
        std::int64_t l = 0;
        while (in >> l) d.labels.push_back(static_cast<std::int32_t>(l));
        SCGNN_CHECK(d.labels.size() == d.graph.num_nodes(),
                    "labels.txt count does not match the graph");
    }
    {
        std::ifstream in = open_in(dir + "/splits.txt");
        std::string line;
        while (std::getline(in, line)) {
            if (is_comment_or_blank(line)) continue;
            std::istringstream ss(line);
            std::string which;
            ss >> which;
            std::vector<std::uint32_t>* target = nullptr;
            if (which == "train")
                target = &d.train_mask;
            else if (which == "val")
                target = &d.val_mask;
            else if (which == "test")
                target = &d.test_mask;
            SCGNN_CHECK(target != nullptr, "unknown split name: " + which);
            std::uint32_t id = 0;
            while (ss >> id) {
                SCGNN_CHECK(id < d.graph.num_nodes(), "split id out of range");
                target->push_back(id);
            }
        }
        SCGNN_CHECK(!d.train_mask.empty() && !d.test_mask.empty(),
                    "splits.txt must define train and test splits");
        // A split lists each node once: the loss gradient writes every
        // mask row from its own parallel task.
        std::vector<bool> seen;
        for (const auto* split : {&d.train_mask, &d.val_mask, &d.test_mask}) {
            seen.assign(d.graph.num_nodes(), false);
            for (const std::uint32_t id : *split) {
                SCGNN_CHECK(!seen[id], "splits.txt lists node " +
                                           std::to_string(id) +
                                           " twice in one split");
                seen[id] = true;
            }
        }
    }
    return d;
}

} // namespace scgnn::graph
