// Dense linear weights laid out once for the decode-step kernels.
//
// Rows are grouped into 16-row panels (kPanelRows, the output width of every
// backend's NT micro-kernel). Panel p holds rows [16p, 16p + 16) k-major:
// element (r, c) sits at panel(p)[c * 16 + (r - 16p)], so one 16-lane load
// yields column c of all the panel's rows. Dead lanes of a partial last panel
// are zero. GemmNT packs exactly this layout on every call; a PanelMatrix
// packs it once, which is what makes an m = 1 decode step cheap.
#ifndef SRC_TENSOR_PANEL_MATRIX_H_
#define SRC_TENSOR_PANEL_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/tensor/matrix.h"

namespace dz {

inline constexpr int kPanelRows = 16;

inline int PanelCount(int rows) { return (rows + kPanelRows - 1) / kPanelRows; }

class PanelMatrix {
 public:
  PanelMatrix() = default;

  static PanelMatrix Pack(const Matrix& w);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  // cols() * kPanelRows floats, k-major.
  const float* panel(int p) const {
    return data_.data() + static_cast<size_t>(p) * cols_ * kPanelRows;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

}  // namespace dz

#endif  // SRC_TENSOR_PANEL_MATRIX_H_
