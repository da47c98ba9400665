#include "common/serial.h"

#include <array>
#include <cstring>

namespace prkb {

uint32_t Crc32(const uint8_t* data, size_t size) {
  // Byte-at-a-time table, built once (reflected 0xEDB88320 polynomial).
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void Encoder::PutBytes(const std::vector<uint8_t>& bytes) {
  PutVarint(bytes.size());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Encoder::PutString(const std::string& s) {
  PutVarint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

Status Decoder::GetU8(uint8_t* out) {
  if (pos_ + 1 > size_) return Status::Corruption("truncated u8");
  *out = data_[pos_++];
  return Status::Ok();
}

Status Decoder::GetU32(uint32_t* out) {
  if (pos_ + 4 > size_) return Status::Corruption("truncated u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  *out = v;
  return Status::Ok();
}

Status Decoder::GetU64(uint64_t* out) {
  if (pos_ + 8 > size_) return Status::Corruption("truncated u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  *out = v;
  return Status::Ok();
}

Status Decoder::GetVarint(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= size_) return Status::Corruption("truncated varint");
    if (shift >= 64) return Status::Corruption("varint overflow");
    const uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = v;
  return Status::Ok();
}

Status Decoder::GetBytes(std::vector<uint8_t>* out) {
  uint64_t n = 0;
  PRKB_RETURN_IF_ERROR(GetVarint(&n));
  // n comes off the wire: compare against what is left, never pos_ + n,
  // which wraps for a hostile length near 2^64.
  if (n > size_ - pos_) return Status::Corruption("truncated bytes");
  out->assign(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return Status::Ok();
}

Status Decoder::GetString(std::string* out) {
  uint64_t n = 0;
  PRKB_RETURN_IF_ERROR(GetVarint(&n));
  if (n > size_ - pos_) return Status::Corruption("truncated string");
  out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return Status::Ok();
}

}  // namespace prkb
