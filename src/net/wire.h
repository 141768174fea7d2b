#ifndef LBTRUST_NET_WIRE_H_
#define LBTRUST_NET_WIRE_H_

#include <string>
#include <string_view>

#include "datalog/value.h"
#include "util/status.h"

namespace lbtrust::net {

/// Wire format for tuples shipped between simulated nodes. Values are
/// length-prefixed and kind-tagged; quoted code travels as its canonical
/// text and is re-parsed on arrival, which exercises the same code path a
/// real distributed deployment would (§3.5).
///
///   value := <kind-char> ':' <payload-length> ':' <payload>
///   tuple := <count> ':' value*
std::string SerializeValue(const datalog::Value& value);
util::Result<datalog::Value> DeserializeValue(std::string_view text,
                                              size_t* consumed);

std::string SerializeTuple(const datalog::Tuple& tuple);
util::Result<datalog::Tuple> DeserializeTuple(std::string_view text);

/// Dictionary-framed multi-tuple block — the batched counterpart of
/// SerializeTuple. Every distinct value in the batch is serialized exactly
/// once into a per-message dictionary; rows are lists of dictionary
/// indices, so repeated principals/predicates/payloads ship once per
/// message no matter how many tuples mention them.
///
///   block := 'B' ':' <dict-count> ':' value*
///                    <row-count> ':' row*
///   row   := <arity> ':' (<dict-index> ':')*
std::string SerializeTupleBlock(const std::vector<datalog::Tuple>& tuples);

util::Result<std::vector<datalog::Tuple>> DeserializeTupleBlock(
    std::string_view text);

/// One simulated network message: tuples bound for `relation` at
/// `to_node`, or a credential bundle (src/cred wire format) the receiving
/// node verifies-and-imports.
struct Message {
  enum class Kind {
    kTuple,       ///< payload = SerializeTuple output for `relation`
    kTupleBlock,  ///< payload = SerializeTupleBlock output for `relation`
    kCredential,  ///< payload = cred::SerializeBundle output
  };

  Kind kind = Kind::kTuple;
  std::string from_node;
  std::string to_node;
  std::string relation;  ///< "credential" for Kind::kCredential (tamper hook)
  std::string payload;

  size_t ByteSize() const {
    return from_node.size() + to_node.size() + relation.size() +
           payload.size();
  }
};

}  // namespace lbtrust::net

#endif  // LBTRUST_NET_WIRE_H_
