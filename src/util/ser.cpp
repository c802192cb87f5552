#include "util/ser.h"

namespace nicemc::util {

void Ser::grow_to(std::size_t need) {
  const std::size_t n = size();
  std::size_t cap = 2 * capacity();
  if (cap < need) cap = need;
  char* fresh = new char[cap];  // default-initialized: no zero fill
  std::memcpy(fresh, base_, n);
  release();
  base_ = fresh;
  cur_ = fresh + n;
  end_ = fresh + cap;
}

}  // namespace nicemc::util
