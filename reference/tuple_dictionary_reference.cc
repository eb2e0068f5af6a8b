#include "reference/tuple_dictionary_reference.h"

#include <cassert>

namespace omega {

void ReferenceTupleDictionary::Add(const EvalTuple& tuple) {
  Bucket& bucket = buckets_[tuple.d];
  if (prioritize_final_ && tuple.is_final) {
    bucket.final_items.push_back(tuple);
  } else {
    bucket.nonfinal_items.push_back(tuple);
  }
  ++size_;
}

EvalTuple ReferenceTupleDictionary::Remove() {
  assert(!Empty());
  auto it = buckets_.begin();
  Bucket& bucket = it->second;
  EvalTuple out;
  if (!bucket.final_items.empty()) {
    out = bucket.final_items.back();
    bucket.final_items.pop_back();
  } else {
    out = bucket.nonfinal_items.back();
    bucket.nonfinal_items.pop_back();
  }
  if (bucket.final_items.empty() && bucket.nonfinal_items.empty()) {
    buckets_.erase(it);
  }
  --size_;
  return out;
}

void ReferenceTupleDictionary::Clear() {
  buckets_.clear();
  size_ = 0;
}

}  // namespace omega
