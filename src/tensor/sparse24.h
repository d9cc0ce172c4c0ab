// 2:4 structured-sparse + quantized matrix — the ΔCompress storage format
// (paper Fig. 5, steps 2+3).
//
// In every group of 4 contiguous columns at most 2 values are non-zero. Storage keeps
// exactly 2 quantized codes per group plus their 2-bit in-group positions, matching
// NVIDIA sparse-tensor-core metadata layout: for an R×C matrix the footprint is
//   R * C/2 * bits        (packed codes)
// + R * C/2 * 2 bits      (indices)
// + per-group quant params.
//
// Construction takes an already 2:4-pruned dense matrix (the mask search lives in
// src/compress — magnitude- or Hessian-aware); this class is the packing/layout layer.
//
// Pack and FromStorage also lay the same storage out once as 16-row panels for
// the decode-step kernels (see Panel below). The panels are derived data: they
// are neither serialized nor counted in ByteSize().
#ifndef SRC_TENSOR_SPARSE24_H_
#define SRC_TENSOR_SPARSE24_H_

#include <cstdint>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/tensor/panel_matrix.h"

namespace dz {

// Returns true iff every aligned group of 4 columns has at most 2 non-zeros.
bool Is24Sparse(const Matrix& w);

// Zeroes the 2 smallest-magnitude entries in every group of 4 (baseline mask search).
Matrix MagnitudePrune24(const Matrix& w);

class Sparse24Matrix {
 public:
  Sparse24Matrix() = default;

  // Packs a 2:4-sparse matrix, quantizing kept values to `bits` with per-row groups of
  // `group_size` *kept* values. Requires Is24Sparse(w) and cols % 4 == 0.
  static Sparse24Matrix Pack(const Matrix& w, int bits, int group_size);

  Matrix Dequantize() const;

  // Y = X * W'^T with on-the-fly dequantization, touching only stored non-zeros
  // (software analogue of a sparse-tensor-core kernel).
  Matrix MatmulNT(const Matrix& x) const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int bits() const { return bits_; }
  int group_size() const { return group_size_; }
  bool empty() const { return rows_ == 0; }

  size_t ByteSize() const;

  // Fraction of stored slots (0.5 for 2:4).
  double density() const { return 0.5; }

  // Raw storage accessors (serialization).
  const std::vector<uint32_t>& packed_values() const { return packed_; }
  const std::vector<uint32_t>& packed_indices() const { return indices_; }
  const std::vector<float>& scales() const { return scales_; }
  const std::vector<uint8_t>& zeros() const { return zeros_; }

  // True when raw storage of these lengths is consistent with the dimensions:
  // rows > 0, cols >= 0 and a multiple of 4, bits in {2, 4, 8}, group_size > 0,
  // and every array exactly as long as the dimensions imply. Deserializers
  // check untrusted fields with it before calling FromStorage.
  static bool StorageFits(int rows, int cols, int bits, int group_size,
                          size_t packed_words, size_t index_words,
                          size_t scale_count, size_t zero_count);

  // Rebuilds a matrix from raw storage (deserialization). Check-fails unless
  // StorageFits() holds for it.
  static Sparse24Matrix FromStorage(int rows, int cols, int bits, int group_size,
                                    std::vector<uint32_t> packed,
                                    std::vector<uint32_t> indices,
                                    std::vector<float> scales,
                                    std::vector<uint8_t> zeros);

  // One 16-row panel of the decode-step layout. Lane t is weight row
  // 16p + t. Each storage word of the panel's rows sits beside the same word
  // of the other 15 rows, so one 16-lane load yields the same run of kept
  // slots for all of them and every slot decodes with lane-uniform shifts:
  // slot kk's code is bits [(kk % (32/bits)) * bits, +bits) of code word
  // kk / (32/bits), its in-group position bits [(kk % 16) * 2, +2) of index
  // word kk / 16, and its quant params those of group kk / group_size. Dead
  // lanes of a partial last panel decode to 0 * 0 at position 0.
  struct Panel {
    const uint32_t* codes;    // [code word][kPanelRows]
    const uint32_t* indices;  // [index word][kPanelRows]
    const int32_t* zeros;     // [group][kPanelRows]
    const float* scales;      // [group][kPanelRows]
    int kept;                 // stored slots per row, cols / 2
    int bits;
    int group_size;
  };
  Panel panel(int p) const;

 private:
  float KeptValueAt(int r, int k) const;  // k-th kept value in row r
  int index_words_per_row() const { return (kept_per_row_ + 15) / 16; }
  void BuildPanels();

  int rows_ = 0;
  int cols_ = 0;
  int bits_ = 0;
  int group_size_ = 0;      // group of *kept* values sharing quant params
  int kept_per_row_ = 0;    // cols_ / 2
  int groups_per_row_ = 0;
  int codes_per_word_ = 0;
  int words_per_row_ = 0;
  std::vector<uint32_t> packed_;    // quantized kept values
  std::vector<uint32_t> indices_;   // 2-bit positions, 16 per word
  std::vector<float> scales_;
  std::vector<uint8_t> zeros_;
  // The same storage as panels (Panel), built by BuildPanels.
  std::vector<uint32_t> panel_codes_;
  std::vector<uint32_t> panel_indices_;
  std::vector<int32_t> panel_zeros_;
  std::vector<float> panel_scales_;
};

}  // namespace dz

#endif  // SRC_TENSOR_SPARSE24_H_
