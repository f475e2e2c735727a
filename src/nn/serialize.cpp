#include "src/nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "src/util/fs.hpp"

namespace tsc::nn {
namespace {

constexpr char kMagic[4] = {'T', 'S', 'C', 'W'};
constexpr char kOptimMagic[4] = {'T', 'S', 'C', 'O'};
constexpr std::uint64_t kOptimVersion = 1;

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_values(std::ostream& out, const Tensor& t) {
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(double)));
}

void read_values(std::ifstream& in, Tensor& t) {
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.size() * sizeof(double)));
}

}  // namespace

// Checkpoint writers go through util::atomic_write_file (temp file + rename
// in the same directory), so a crash mid-save can never leave a truncated
// file where a previously-good checkpoint was — the durability contract the
// fleet orchestrator's crash-resume relies on (DESIGN.md §9).
void save_weights(Module& module, const std::string& path) {
  util::atomic_write_file(path, [&](std::ostream& out) {
    out.write(kMagic, sizeof(kMagic));
    auto params = module.parameters();
    write_u64(out, params.size());
    for (Parameter* p : params) {
      write_u64(out, p->value.rank());
      for (std::size_t d : p->value.shape()) write_u64(out, d);
      out.write(reinterpret_cast<const char*>(p->value.data()),
                static_cast<std::streamsize>(p->value.size() * sizeof(double)));
    }
    if (!out) throw std::runtime_error("save_weights: write failed for " + path);
  });
}

StagedWeights read_weights(Module& module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_weights: cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::string(magic, 4) != std::string(kMagic, 4))
    throw std::runtime_error("load_weights: bad magic in " + path);
  auto params = module.parameters();
  const std::uint64_t count = read_u64(in);
  if (count != params.size())
    throw std::runtime_error("load_weights: parameter count mismatch in " + path);
  StagedWeights staged;
  staged.reserve(params.size());
  for (Parameter* p : params) {
    const std::uint64_t rank = read_u64(in);
    if (rank != p->value.rank())
      throw std::runtime_error("load_weights: rank mismatch for " + p->name);
    for (std::size_t d = 0; d < rank; ++d) {
      const std::uint64_t dim = read_u64(in);
      if (dim != p->value.shape()[d])
        throw std::runtime_error("load_weights: shape mismatch for " + p->name);
    }
    staged.push_back(Tensor::zeros_like(p->value));
    read_values(in, staged.back());
  }
  if (!in) throw std::runtime_error("load_weights: truncated file " + path);
  return staged;
}

void commit_weights(Module& module, const StagedWeights& staged) {
  auto params = module.parameters();
  for (std::size_t k = 0; k < params.size(); ++k)
    std::copy(staged[k].data(), staged[k].data() + staged[k].size(),
              params[k]->value.data());
}

void load_weights(Module& module, const std::string& path) {
  commit_weights(module, read_weights(module, path));
}

void save_optimizer_state(const Adam& optim, const std::string& path) {
  util::atomic_write_file(path, [&](std::ostream& out) {
    out.write(kOptimMagic, sizeof(kOptimMagic));
    write_u64(out, kOptimVersion);
    write_u64(out, optim.steps_taken());
    const auto& m = optim.first_moments();
    const auto& v = optim.second_moments();
    write_u64(out, m.size());
    for (std::size_t k = 0; k < m.size(); ++k) {
      write_u64(out, m[k].rank());
      for (std::size_t d : m[k].shape()) write_u64(out, d);
      write_values(out, m[k]);
      write_values(out, v[k]);
    }
    if (!out)
      throw std::runtime_error("save_optimizer_state: write failed for " + path);
  });
}

StagedOptimizerState read_optimizer_state(const Adam& optim,
                                          const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_optimizer_state: cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::string(magic, 4) != std::string(kOptimMagic, 4))
    throw std::runtime_error("load_optimizer_state: bad magic in " + path);
  const std::uint64_t version = read_u64(in);
  if (version != kOptimVersion)
    throw std::runtime_error("load_optimizer_state: unsupported version in " + path);
  const std::uint64_t t = read_u64(in);
  const std::uint64_t count = read_u64(in);
  if (count != optim.num_params())
    throw std::runtime_error("load_optimizer_state: parameter count mismatch in " +
                             path);
  StagedOptimizerState staged;
  staged.steps = static_cast<std::size_t>(t);
  staged.m.reserve(count);
  staged.v.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    const Parameter& p = *optim.params()[k];
    const std::uint64_t rank = read_u64(in);
    if (rank != p.value.rank())
      throw std::runtime_error("load_optimizer_state: rank mismatch for " + p.name);
    for (std::size_t d = 0; d < rank; ++d) {
      const std::uint64_t dim = read_u64(in);
      if (dim != p.value.shape()[d])
        throw std::runtime_error("load_optimizer_state: shape mismatch for " +
                                 p.name);
    }
    Tensor mk = Tensor::zeros_like(p.value);
    Tensor vk = Tensor::zeros_like(p.value);
    read_values(in, mk);
    read_values(in, vk);
    staged.m.push_back(std::move(mk));
    staged.v.push_back(std::move(vk));
  }
  if (!in) throw std::runtime_error("load_optimizer_state: truncated file " + path);
  return staged;
}

void commit_optimizer_state(Adam& optim, StagedOptimizerState staged) {
  optim.restore_state(std::move(staged.m), std::move(staged.v), staged.steps);
}

void load_optimizer_state(Adam& optim, const std::string& path) {
  commit_optimizer_state(optim, read_optimizer_state(optim, path));
}

}  // namespace tsc::nn
