#include "src/tensor/panel_matrix.h"

namespace dz {

PanelMatrix PanelMatrix::Pack(const Matrix& w) {
  PanelMatrix out;
  out.rows_ = w.rows();
  out.cols_ = w.cols();
  out.data_.assign(
      static_cast<size_t>(PanelCount(out.rows_)) * out.cols_ * kPanelRows, 0.0f);
  for (int r = 0; r < out.rows_; ++r) {
    const float* src = w.row(r);
    float* dst = out.data_.data() +
                 static_cast<size_t>(r / kPanelRows) * out.cols_ * kPanelRows +
                 r % kPanelRows;
    for (int c = 0; c < out.cols_; ++c) {
      dst[static_cast<size_t>(c) * kPanelRows] = src[c];
    }
  }
  return out;
}

}  // namespace dz
