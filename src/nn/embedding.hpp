// Embedding tables.
//
// EmbeddingTable is the learnable parameter store: a Variable over an
// (rows × dim) matrix with Xavier init (TransE's published initialisation).
// StreamingEmbedding reproduces §4.7.1's memory-mapped tensor support:
// embeddings that do not fit in RAM live in a disk file and are mapped
// read/write, so training touches only the pages a batch needs. Both expose
// the same Variable so models are agnostic to the storage.
#pragma once

#include <span>
#include <string>

#include "src/autograd/variable.hpp"
#include "src/common/rng.hpp"

namespace sptx::nn {

class EmbeddingTable {
 public:
  EmbeddingTable(index_t rows, index_t dim, Rng& rng);
  /// Initialise with explicit values (e.g. pre-trained LLM embeddings).
  EmbeddingTable(Matrix init);

  autograd::Variable& var() { return var_; }
  const autograd::Variable& var() const { return var_; }
  const Matrix& weights() const { return var_.value(); }
  Matrix& mutable_weights() { return var_.mutable_value(); }
  index_t rows() const { return var_.rows(); }
  index_t dim() const { return var_.cols(); }

  /// L2-normalise rows in place (Matrix::normalize_rows_l2_: rows already
  /// unit keep every bit). Every row — TransE normalises entities per batch;
  /// the first `count` rows — for the stacked [entities; relations] layout
  /// where relation translations stay free; or a batch's sorted row list.
  void normalize_rows() { var_.mutable_value().normalize_rows_l2_(); }
  void normalize_rows_prefix(index_t count) {
    var_.mutable_value().normalize_rows_l2_(count);
  }
  void normalize_rows(std::span<const index_t> rows) {
    var_.mutable_value().normalize_rows_l2_(rows);
  }

 private:
  autograd::Variable var_;
};

/// Disk-backed embedding matrix accessed through mmap. Creating with
/// `create` builds (and Xavier-initialises) the backing file; `open` maps an
/// existing one. The mapped region is wrapped in a non-owning Matrix view
/// surfaced as a Variable, so gradients stay in RAM while weights stream
/// from disk — the paper's large-LLM-embedding training mode.
class StreamingEmbedding {
 public:
  static StreamingEmbedding create(const std::string& path, index_t rows,
                                   index_t dim, Rng& rng);
  static StreamingEmbedding open(const std::string& path, index_t rows,
                                 index_t dim);
  ~StreamingEmbedding();

  StreamingEmbedding(StreamingEmbedding&&) noexcept;
  StreamingEmbedding& operator=(StreamingEmbedding&&) = delete;
  StreamingEmbedding(const StreamingEmbedding&) = delete;
  StreamingEmbedding& operator=(const StreamingEmbedding&) = delete;

  index_t rows() const { return rows_; }
  index_t dim() const { return dim_; }
  float* data() { return mapped_; }

  /// Copy a row range into a dense in-RAM matrix (batch staging).
  Matrix load_rows(index_t begin, index_t count) const;
  /// Write a dense matrix back to a row range (after an optimizer step).
  void store_rows(index_t begin, const Matrix& values);
  /// Flush dirty pages to disk.
  void sync();

 private:
  StreamingEmbedding(int fd, float* mapped, index_t rows, index_t dim);

  int fd_ = -1;
  float* mapped_ = nullptr;
  index_t rows_ = 0;
  index_t dim_ = 0;
};

}  // namespace sptx::nn
