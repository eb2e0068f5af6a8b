// The seed's std::map-based D_R dictionary, kept verbatim as the executable
// specification of the removal discipline. TupleDictionary (the monotone
// bucket queue that replaced it on the hot path) must produce byte-identical
// removal order — tests/tuple_dictionary_test.cc asserts this over random
// sweeps, and bench_micro_substrate races the two implementations.
#ifndef OMEGA_REFERENCE_TUPLE_DICTIONARY_REFERENCE_H_
#define OMEGA_REFERENCE_TUPLE_DICTIONARY_REFERENCE_H_

#include <map>
#include <vector>

#include "eval/tuple_dictionary.h"

namespace omega {

class ReferenceTupleDictionary {
 public:
  explicit ReferenceTupleDictionary(bool prioritize_final = true)
      : prioritize_final_(prioritize_final) {}

  void Add(const EvalTuple& tuple);

  bool Empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Lowest distance present. Precondition: !Empty().
  Cost MinDistance() const { return buckets_.begin()->first; }

  /// Removes per the §3.3 discipline. Precondition: !Empty().
  EvalTuple Remove();

  void Clear();

 private:
  struct Bucket {
    std::vector<EvalTuple> final_items;
    std::vector<EvalTuple> nonfinal_items;
  };

  std::map<Cost, Bucket> buckets_;
  size_t size_ = 0;
  bool prioritize_final_;
};

}  // namespace omega

#endif  // OMEGA_REFERENCE_TUPLE_DICTIONARY_REFERENCE_H_
