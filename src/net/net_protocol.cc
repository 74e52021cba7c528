#include "src/net/net_protocol.h"

#include <cstring>

#include "src/base/crc32c.h"

namespace ntrace {

namespace {

template <typename T>
void Put(std::vector<uint8_t>* out, T value) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>(static_cast<uint64_t>(value) >> (8 * i)));
  }
}

template <typename T>
bool Get(const uint8_t* data, size_t size, size_t* pos, T* out) {
  if (size - *pos < sizeof(T)) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<uint64_t>(data[*pos + i]) << (8 * i);
  }
  *pos += sizeof(T);
  *out = static_cast<T>(v);
  return true;
}

}  // namespace

void EncodeHelloFrame(std::vector<uint8_t>* out, const NetHello& hello) {
  std::vector<uint8_t> p;
  Put(&p, hello.protocol_version);
  Put(&p, hello.agent_id);
  Put(&p, hello.config_fingerprint);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kHello), p.data(), p.size(), nullptr,
                   0);
}

void EncodeHelloAckFrame(std::vector<uint8_t>* out, const NetHelloAck& ack) {
  std::vector<uint8_t> p;
  Put(&p, ack.resume_seq);
  Put(&p, ack.credit);
  Put(&p, ack.status);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kHelloAck), p.data(), p.size(),
                   nullptr, 0);
}

void EncodeDataFrame(std::vector<uint8_t>* out, const NetDataHead& head, const void* inner,
                     size_t inner_size, const void* inner_tail, size_t inner_tail_size) {
  const size_t payload_size = kNetDataHeadSize + inner_size + inner_tail_size;
  const size_t at = out->size();
  out->resize(at + kSpoolFrameHeaderSize + payload_size);
  uint8_t* payload = out->data() + at + kSpoolFrameHeaderSize;
  std::memcpy(payload, &head.net_seq, 8);
  std::memcpy(payload + 8, &head.agent_id, 4);
  std::memcpy(payload + 12, &head.inner_type, 2);
  if (inner_size > 0) {
    std::memcpy(payload + kNetDataHeadSize, inner, inner_size);
  }
  if (inner_tail_size > 0) {
    std::memcpy(payload + kNetDataHeadSize + inner_size, inner_tail, inner_tail_size);
  }
  SpoolFillFrameHeader(out->data() + at, static_cast<uint16_t>(NetFrameType::kData),
                       static_cast<uint32_t>(payload_size), Crc32c(payload, payload_size));
}

void EncodeAckFrame(std::vector<uint8_t>* out, const NetAck& ack) {
  std::vector<uint8_t> p;
  Put(&p, ack.agent_id);
  Put(&p, ack.ack_seq);
  Put(&p, ack.durable_seq);
  Put(&p, ack.credit);
  Put(&p, ack.status);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kAck), p.data(), p.size(), nullptr,
                   0);
}

void EncodeByeFrame(std::vector<uint8_t>* out, const NetBye& bye) {
  std::vector<uint8_t> p;
  Put(&p, bye.frames_sent);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kBye), p.data(), p.size(), nullptr,
                   0);
}

void EncodeByeAckFrame(std::vector<uint8_t>* out, const NetByeAck& ack) {
  std::vector<uint8_t> p;
  Put(&p, ack.records_collected);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kByeAck), p.data(), p.size(), nullptr,
                   0);
}

bool DecodeHello(const uint8_t* payload, size_t size, NetHello* hello) {
  size_t pos = 0;
  return Get(payload, size, &pos, &hello->protocol_version) &&
         hello->protocol_version == kNetProtocolVersion &&
         Get(payload, size, &pos, &hello->agent_id) &&
         Get(payload, size, &pos, &hello->config_fingerprint);
}

bool DecodeHelloAck(const uint8_t* payload, size_t size, NetHelloAck* ack) {
  size_t pos = 0;
  return Get(payload, size, &pos, &ack->resume_seq) && Get(payload, size, &pos, &ack->credit) &&
         Get(payload, size, &pos, &ack->status);
}

bool DecodeDataHead(const uint8_t* payload, size_t size, NetDataHead* head,
                    const uint8_t** inner, size_t* inner_size) {
  if (size < kNetDataHeadSize) {
    return false;
  }
  std::memcpy(&head->net_seq, payload, 8);
  std::memcpy(&head->agent_id, payload + 8, 4);
  std::memcpy(&head->inner_type, payload + 12, 2);
  *inner = payload + kNetDataHeadSize;
  *inner_size = size - kNetDataHeadSize;
  return true;
}

bool DecodeAck(const uint8_t* payload, size_t size, NetAck* ack) {
  size_t pos = 0;
  return Get(payload, size, &pos, &ack->agent_id) && Get(payload, size, &pos, &ack->ack_seq) &&
         Get(payload, size, &pos, &ack->durable_seq) && Get(payload, size, &pos, &ack->credit) &&
         Get(payload, size, &pos, &ack->status);
}

bool DecodeBye(const uint8_t* payload, size_t size, NetBye* bye) {
  size_t pos = 0;
  return Get(payload, size, &pos, &bye->frames_sent);
}

bool DecodeByeAck(const uint8_t* payload, size_t size, NetByeAck* ack) {
  size_t pos = 0;
  return Get(payload, size, &pos, &ack->records_collected);
}

void NetFrameAssembler::Append(const uint8_t* data, size_t size) {
  // Compact before growing: everything before pos_ is consumed.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= (64u << 10))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

bool NetFrameAssembler::Next(SpoolFrameView* view, bool* corrupt) {
  if (corrupt != nullptr) {
    *corrupt = false;
  }
  if (corrupt_ || pos_ >= buf_.size()) {
    return false;
  }
  size_t consumed = 0;
  switch (SpoolParseFrame(buf_.data() + pos_, buf_.size() - pos_, view, &consumed)) {
    case SpoolFrameStatus::kOk:
      pos_ += consumed;
      return true;
    case SpoolFrameStatus::kTruncatedHeader:
    case SpoolFrameStatus::kTruncatedPayload:
      return false;  // Wait for more bytes.
    case SpoolFrameStatus::kBadHeader:
    case SpoolFrameStatus::kBadPayload:
      corrupt_ = true;
      if (corrupt != nullptr) {
        *corrupt = true;
      }
      return false;
  }
  return false;
}

std::vector<uint8_t> NetFrameAssembler::TakeBuffered() {
  std::vector<uint8_t> tail(buf_.begin() + static_cast<ptrdiff_t>(pos_), buf_.end());
  buf_.clear();
  pos_ = 0;
  return tail;
}

void NetFrameAssembler::Reset() {
  buf_.clear();
  pos_ = 0;
  corrupt_ = false;
}

}  // namespace ntrace
