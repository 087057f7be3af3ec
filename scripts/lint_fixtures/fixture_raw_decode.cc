// lint-fixture-expect: R10
// lint-fixture-path: src/core/system.cc
// Seeded violation: protocol code bypasses the taint wrapper by calling the
// raw decoder directly instead of the Untrusted-returning entry point.
namespace apqa::core {

VerifyResult VerifyFromWire(const VerifyKey& mvk,
                            const std::vector<std::uint8_t>& bytes) {
  common::ByteReader r(bytes);
  Vo vo = Vo::DeserializeRaw(&r);
  return VerifyEqualityVoEx(mvk, vo);
}

}  // namespace apqa::core
