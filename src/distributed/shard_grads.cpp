#include "src/distributed/shard_grads.hpp"

#include <algorithm>
#include <cstring>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/sparse/incidence.hpp"

namespace sptx::distributed {

void Replica::init(std::unique_ptr<models::KgeModel> m, bool use_cache,
                   index_t n_ent, index_t n_rel) {
  model = std::move(m);
  scoring = dynamic_cast<models::ScoringCoreModel*>(model.get());
  params = model->params();
  spaces = model->param_index_spaces();
  if (scoring != nullptr) recipe = scoring->recipe();
  if (use_cache) cache = std::make_unique<sparse::PlanCache>();
  num_entities = n_ent;
  num_relations = n_rel;
  for (auto& param : params) param.grad();
}

bool for_each_batch(const kg::TripletSource& data, std::uint64_t seed,
                    index_t batch_size, index_t shard_size,
                    const std::function<bool(const Batch&)>& fn) {
  // Store-free uniform sampler: works for streaming sources because it only
  // needs the vocabulary sizes (the paper's §5.3 protocol is uniform).
  const kg::NegativeSampler sampler(data.num_entities(), data.num_relations(),
                                    kg::CorruptionScheme::kUniform);
  Rng data_rng(seed + 1);
  const index_t m = data.size();
  Batch b;
  b.shard_size = shard_size;
  for (index_t begin = 0; begin < m; begin += batch_size, ++b.ordinal) {
    b.count = std::min<index_t>(batch_size, m - begin);
    b.num_shards = (b.count + shard_size - 1) / shard_size;
    b.pos = data.slice(begin, b.count);
    const std::vector<Triplet> negatives = sampler.pregenerate(b.pos, data_rng);
    b.neg = negatives;
    if (!fn(b)) return false;
    b.shard_ordinal_base += b.num_shards;
  }
  return true;
}

float compute_shard(Replica& rep, const Batch& batch, index_t s,
                    ShardGrads& out) {
  const index_t s_begin = s * batch.shard_size;
  const index_t n_s =
      std::min<index_t>(batch.shard_size, batch.count - s_begin);
  const std::span<const Triplet> pos = batch.pos.subspan(
      static_cast<std::size_t>(s_begin), static_cast<std::size_t>(n_s));
  const std::span<const Triplet> neg = batch.neg.subspan(
      static_cast<std::size_t>(s_begin), static_cast<std::size_t>(n_s));
  const index_t n_ent = rep.num_entities;
  const index_t n_rel = rep.num_relations;

  autograd::Variable loss;
  if (rep.scoring != nullptr) {
    const sparse::PlanCache::Key key =
        static_cast<sparse::PlanCache::Key>(batch.shard_ordinal_base + s) << 1;
    std::shared_ptr<const sparse::CompiledBatch> pos_plan =
        rep.cache != nullptr ? rep.cache->find(key) : nullptr;
    if (!pos_plan) {
      // Zero-copy: the plan views the store's (possibly mmap'd) span; for
      // streaming sources nothing is ever copied.
      pos_plan = sparse::CompiledBatch::compile(pos, rep.recipe, n_ent, n_rel,
                                                /*copy_triplets=*/false);
      if (rep.cache != nullptr) rep.cache->put(key, pos_plan);
    }
    std::shared_ptr<const sparse::CompiledBatch> neg_plan =
        rep.cache != nullptr ? rep.cache->find(key | 1) : nullptr;
    if (!neg_plan) {
      neg_plan = sparse::CompiledBatch::compile_owned(
          std::vector<Triplet>(neg.begin(), neg.end()), rep.recipe, n_ent,
          n_rel);
      if (rep.cache != nullptr) rep.cache->put(key | 1, neg_plan);
    }
    loss = rep.scoring->loss(*pos_plan, *neg_plan);
  } else {
    // Span fallback for models outside the scoring-core family (dense
    // baselines, external KgeModels).
    loss = rep.model->loss(pos, neg);
  }

  const float weight =
      static_cast<float>(n_s) / static_cast<float>(batch.count);
  autograd::scale(loss, weight).backward();

  // Harvest: copy the shard's gradient support out and zero it in place.
  // For an entity table only rows named by the shard's triplets can hold
  // gradient (every backward scatter lands inside the incidence support),
  // so only those rows travel — that is what makes the all-reduce sparse.
  // Built aside and moved out last: a throw leaves `out` empty, so the
  // driver recomputes the shard instead of reducing half a harvest.
  const StepRows support(rep, pos, neg);
  ShardGrads harvested(rep.params.size());
  for (std::size_t i = 0; i < rep.params.size(); ++i) {
    ParamGrad& pg = harvested[i];
    Matrix& g = rep.params[i].grad();
    pg.present = true;
    if (support.rows[i] == nullptr) {
      pg.dense = true;
      pg.values = g;  // deep copy
      g.zero();
      continue;
    }
    pg.rows = *support.rows[i];
    const index_t cols = g.cols();
    pg.values = Matrix(static_cast<index_t>(pg.rows.size()), cols);
    for (std::size_t k = 0; k < pg.rows.size(); ++k) {
      std::memcpy(pg.values.row(static_cast<index_t>(k)), g.row(pg.rows[k]),
                  static_cast<std::size_t>(cols) * sizeof(float));
      std::memset(g.row(pg.rows[k]), 0,
                  static_cast<std::size_t>(cols) * sizeof(float));
    }
  }

  // One-time (per replica) safety net for param_index_spaces(): after the
  // first harvest every gradient buffer must be identically zero — a
  // residue means the loss touched rows outside the declared index space
  // (e.g. a full-table regulariser on an entity-shaped parameter), and the
  // sparse all-reduce would silently drop and cross-contaminate gradient.
  if (!rep.support_verified) {
    for (std::size_t i = 0; i < rep.params.size(); ++i)
      SPTX_CHECK(rep.params[i].grad().max_abs() == 0.0f,
                 rep.model->name()
                     << " parameter " << i
                     << " has gradient outside its declared ParamIndexSpace "
                        "row support; override param_index_spaces() (kDense "
                        "is always safe)");
    rep.support_verified = true;
  }
  out = std::move(harvested);
  return loss.value().at(0, 0) * weight;
}

StepRows::StepRows(Replica& rep, std::span<const Triplet> pos,
                   std::span<const Triplet> neg) {
  ents = touched_entity_ids(pos, neg);
  rels = touched_relation_ids(pos, neg);
  blocks.resize(rep.params.size());
  rows.resize(rep.params.size(), nullptr);
  for (std::size_t i = 0; i < rep.params.size(); ++i) {
    switch (rep.spaces[i]) {
      case models::ParamIndexSpace::kDense:
        break;  // rows[i] stays nullptr
      case models::ParamIndexSpace::kEntity:
        rows[i] = &ents;
        break;
      case models::ParamIndexSpace::kRelation:
        rows[i] = &rels;
        break;
      case models::ParamIndexSpace::kRelationBlocks: {
        // Relation r owns rows [r·h, (r+1)·h), h = rows / R; sorted in,
        // sorted out.
        const index_t param_rows = rep.params[i].grad().rows();
        SPTX_CHECK(rep.num_relations > 0 &&
                       param_rows % rep.num_relations == 0,
                   "kRelationBlocks parameter rows ("
                       << param_rows << ") not divisible by relation count "
                       << rep.num_relations);
        const index_t h = param_rows / rep.num_relations;
        blocks[i].reserve(rels.size() * static_cast<std::size_t>(h));
        for (index_t r : rels)
          for (index_t k = 0; k < h; ++k) blocks[i].push_back(r * h + k);
        rows[i] = &blocks[i];
        break;
      }
      default:
        // Stacked [E; R] table. Entity ids all precede N ≤ N + relation id,
        // so the concatenation of the two sorted lists is itself sorted.
        if (stacked.empty()) {
          stacked = ents;
          for (index_t r : rels) stacked.push_back(rep.num_entities + r);
        }
        rows[i] = &stacked;
        break;
    }
  }
}

void step_replica(Replica& rep, std::vector<autograd::Variable>& grads,
                  const StepRows& support, float lr) {
  for (std::size_t i = 0; i < rep.params.size(); ++i) {
    const Matrix& g = grads[i].grad();
    Matrix& v = rep.params[i].mutable_value();
    if (support.rows[i] == nullptr) {
      v.axpy_(-lr, g);
      continue;
    }
    const index_t cols = g.cols();
    for (index_t row : *support.rows[i])
      simd::axpy(v.row(row), g.row(row), -lr, cols);
  }
  rep.model->post_step();
}

void step_and_clear(Replica& rep, const StepRows& support, float lr) {
  step_replica(rep, rep.params, support, lr);
  for (std::size_t i = 0; i < rep.params.size(); ++i) {
    Matrix& g = rep.params[i].grad();
    if (support.rows[i] == nullptr) {
      g.zero();
      continue;
    }
    for (index_t row : *support.rows[i])
      std::memset(g.row(row), 0,
                  static_cast<std::size_t>(g.cols()) * sizeof(float));
  }
}

}  // namespace sptx::distributed
