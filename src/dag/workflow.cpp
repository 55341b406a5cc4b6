#include "dag/workflow.hpp"

#include <algorithm>
#include <queue>

namespace janus {

FunctionId Workflow::add_function(FunctionSpec spec) {
  nodes_.push_back(std::move(spec));
  succ_.emplace_back();
  pred_.emplace_back();
  return static_cast<FunctionId>(nodes_.size() - 1);
}

void Workflow::add_edge(FunctionId from, FunctionId to) {
  require(from >= 0 && static_cast<std::size_t>(from) < nodes_.size(),
          "edge source out of range");
  require(to >= 0 && static_cast<std::size_t>(to) < nodes_.size(),
          "edge target out of range");
  require(from != to, "self edges are not allowed");
  auto& outs = succ_[static_cast<std::size_t>(from)];
  require(std::find(outs.begin(), outs.end(), to) == outs.end(),
          "duplicate edge");
  outs.push_back(to);
  pred_[static_cast<std::size_t>(to)].push_back(from);
}

const FunctionSpec& Workflow::function(FunctionId id) const {
  require(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
          "function id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

const std::vector<FunctionId>& Workflow::successors(FunctionId id) const {
  require(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
          "function id out of range");
  return succ_[static_cast<std::size_t>(id)];
}

const std::vector<FunctionId>& Workflow::predecessors(FunctionId id) const {
  require(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
          "function id out of range");
  return pred_[static_cast<std::size_t>(id)];
}

std::vector<FunctionId> Workflow::sources() const {
  std::vector<FunctionId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (pred_[i].empty()) out.push_back(static_cast<FunctionId>(i));
  }
  return out;
}

std::vector<FunctionId> Workflow::sinks() const {
  std::vector<FunctionId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (succ_[i].empty()) out.push_back(static_cast<FunctionId>(i));
  }
  return out;
}

std::vector<FunctionId> Workflow::topological_order() const {
  std::vector<int> indegree(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (FunctionId to : succ_[i]) {
      ++indegree[static_cast<std::size_t>(to)];
    }
  }
  // Min-heap keeps the order deterministic (smallest id first among ready
  // nodes), which makes tests and experiment logs stable.
  std::priority_queue<FunctionId, std::vector<FunctionId>, std::greater<>> ready;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) ready.push(static_cast<FunctionId>(i));
  }
  std::vector<FunctionId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const FunctionId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (FunctionId to : succ_[static_cast<std::size_t>(v)]) {
      if (--indegree[static_cast<std::size_t>(to)] == 0) ready.push(to);
    }
  }
  require(order.size() == nodes_.size(), "workflow contains a cycle");
  return order;
}

bool Workflow::is_chain() const {
  if (nodes_.empty()) return false;
  std::size_t with_zero_pred = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (pred_[i].size() > 1 || succ_[i].size() > 1) return false;
    if (pred_[i].empty()) ++with_zero_pred;
  }
  if (with_zero_pred != 1) return false;
  // Connectivity: a single source and max degree 1 everywhere implies a
  // chain exactly when the walk from the source covers every node.
  return chain_walk_length() == nodes_.size();
}

std::size_t Workflow::chain_walk_length() const {
  // Find the single source in place: is_chain() runs once per fleet tenant
  // (policy construction, plan sizing, serve_workload), so it must not
  // allocate.
  std::size_t source = nodes_.size();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!pred_[i].empty()) continue;
    if (source != nodes_.size()) return 0;  // a second source
    source = i;
  }
  if (source == nodes_.size()) return 0;
  std::size_t count = 0;
  auto cur = static_cast<FunctionId>(source);
  for (;;) {
    ++count;
    const auto& outs = succ_[static_cast<std::size_t>(cur)];
    if (outs.empty()) break;
    if (outs.size() > 1) return 0;
    cur = outs.front();
    if (count > nodes_.size()) return 0;  // cycle guard
  }
  return count;
}

std::vector<FunctionId> Workflow::chain_order() const {
  require(is_chain(), "workflow is not a chain");
  std::vector<FunctionId> order;
  order.reserve(nodes_.size());
  FunctionId cur = sources().front();
  for (;;) {
    order.push_back(cur);
    const auto& outs = succ_[static_cast<std::size_t>(cur)];
    if (outs.empty()) break;
    cur = outs.front();
  }
  return order;
}

std::vector<int> Workflow::levels() const {
  const auto order = topological_order();
  std::vector<int> level(nodes_.size(), 0);
  for (FunctionId v : order) {
    for (FunctionId p : pred_[static_cast<std::size_t>(v)]) {
      level[static_cast<std::size_t>(v)] =
          std::max(level[static_cast<std::size_t>(v)],
                   level[static_cast<std::size_t>(p)] + 1);
    }
  }
  return level;
}

std::vector<FunctionId> Workflow::remaining_after(
    const std::vector<bool>& finished) const {
  require(finished.size() == nodes_.size(),
          "finished mask size differs from workflow size");
  std::vector<FunctionId> out;
  for (FunctionId v : topological_order()) {
    if (!finished[static_cast<std::size_t>(v)]) out.push_back(v);
  }
  return out;
}

Workflow Workflow::chain(std::string name, std::vector<FunctionSpec> specs) {
  require(!specs.empty(), "chain needs >= 1 function");
  Workflow wf(std::move(name));
  FunctionId prev = -1;
  for (auto& spec : specs) {
    const FunctionId id = wf.add_function(std::move(spec));
    if (prev >= 0) wf.add_edge(prev, id);
    prev = id;
  }
  return wf;
}

double critical_path(const Workflow& wf, const std::vector<double>& durations) {
  require(durations.size() == wf.size(),
          "durations size differs from workflow size");
  const auto order = wf.topological_order();
  std::vector<double> finish(wf.size(), 0.0);
  double best = 0.0;
  for (FunctionId v : order) {
    double start = 0.0;
    for (FunctionId p : wf.predecessors(v)) {
      start = std::max(start, finish[static_cast<std::size_t>(p)]);
    }
    finish[static_cast<std::size_t>(v)] =
        start + durations[static_cast<std::size_t>(v)];
    best = std::max(best, finish[static_cast<std::size_t>(v)]);
  }
  return best;
}

}  // namespace janus
