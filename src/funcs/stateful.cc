#include "funcs/stateful.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "net/bytes.hh"

namespace halsim::funcs {

using net::load64;
using net::store64;

void
KvsFunction::process(net::Packet &pkt, coherence::StateContext &state)
{
    auto p = pkt.payload();
    if (p.size() < kRequestBytes) {
        p[0] = 0xff;   // malformed
        return;
    }
    const std::uint8_t op = p[0];
    const std::uint64_t key = load64(p.data() + 1);

    Value value{};
    std::memcpy(value.data(), p.data() + 9, value.size());

    std::uint8_t status = 0;
    Value out{};
    switch (op) {
      case 0: {   // GET
        state.touch(stateLineAddr(key), false);
        const Value *v = store_.find(key);
        if (v != nullptr)
            out = *v;
        else
            status = 1;
        break;
      }
      case 1:   // PUT
        state.touch(stateLineAddr(key), true);
        store_.put(key, value);
        out = value;
        break;
      case 2:   // INSERT
        state.touch(stateLineAddr(key), false);
        if (store_.contains(key)) {
            status = 2;
        } else {
            state.touch(stateLineAddr(key), true);
            store_.put(key, value);
            out = value;
        }
        break;
      default:
        status = 0xff;
        break;
    }
    p[0] = status;
    std::memcpy(p.data() + 1, out.data(), out.size());
}

void
KvsFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    auto p = pkt.payload();
    const double pick = rng.uniform();
    std::uint8_t op;
    if (pick < kGetFraction)
        op = 0;
    else if (pick < kGetFraction + kPutFraction)
        op = 1;
    else
        op = 2;
    // A payload shorter than a request gets what fits, and process()
    // answers it as malformed.
    std::array<std::uint8_t, kRequestBytes> req;
    req[0] = op;
    store64(req.data() + 1, rng.uniformInt(kKeySpace));
    for (int i = 0; i < 32; ++i)
        req[9 + i] = static_cast<std::uint8_t>(rng.next());
    std::memcpy(p.data(), req.data(), std::min(p.size(), req.size()));
}

void
CountFunction::process(net::Packet &pkt, coherence::StateContext &state)
{
    auto p = pkt.payload();
    const unsigned batch =
        std::min<unsigned>(p[0], static_cast<unsigned>((p.size() - 1) / 8));
    for (unsigned i = 0; i < batch; ++i) {
        const std::uint64_t key = load64(p.data() + 1 + 8 * i);
        state.touch(stateLineAddr(key), true);   // read-modify-write of the counter
        std::uint64_t *c = counts_.find(key);
        std::uint64_t now;
        if (c != nullptr) {
            now = ++*c;
        } else {
            counts_.put(key, 1);
            now = 1;
        }
        store64(p.data() + 1 + 8 * i, now);
    }
}

void
CountFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    auto p = pkt.payload();
    if (p.empty())
        return;
    const unsigned batch =
        std::min(kBatch, static_cast<unsigned>((p.size() - 1) / 8));
    p[0] = static_cast<std::uint8_t>(batch);
    for (unsigned i = 0; i < batch; ++i)
        store64(p.data() + 1 + 8 * i, rng.uniformInt(kKeySpace));
}

std::uint64_t
CountFunction::countOf(std::uint64_t key) const
{
    const std::uint64_t *c = counts_.find(key);
    return c != nullptr ? *c : 0;
}

std::uint64_t
CountFunction::totalCounted() const
{
    std::uint64_t total = 0;
    counts_.forEach(
        [&](const std::uint64_t &, const std::uint64_t &v) { total += v; });
    return total;
}

void
EmaFunction::process(net::Packet &pkt, coherence::StateContext &state)
{
    auto p = pkt.payload();
    const unsigned batch =
        std::min<unsigned>(p[0], static_cast<unsigned>((p.size() - 1) / 16));
    const std::int64_t alpha = kAlphaMilli;
    for (unsigned i = 0; i < batch; ++i) {
        const std::uint64_t key = load64(p.data() + 1 + 16 * i);
        const auto sample =
            static_cast<std::int64_t>(load64(p.data() + 9 + 16 * i));
        state.touch(stateLineAddr(key), true);
        std::int64_t *cur = ema_.find(key);
        std::int64_t next;
        if (cur != nullptr) {
            next = (alpha * sample + (1000 - alpha) * *cur) / 1000;
            *cur = next;
        } else {
            next = sample;
            ema_.put(key, next);
        }
        store64(p.data() + 1 + 8 * i, static_cast<std::uint64_t>(next));
    }
}

void
EmaFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    auto p = pkt.payload();
    if (p.empty())
        return;
    const unsigned batch =
        std::min(kBatch, static_cast<unsigned>((p.size() - 1) / 16));
    p[0] = static_cast<std::uint8_t>(batch);
    for (unsigned i = 0; i < batch; ++i) {
        store64(p.data() + 1 + 16 * i, rng.uniformInt(kKeySpace));
        store64(p.data() + 9 + 16 * i, rng.uniformInt(1000000));
    }
}

std::int64_t
EmaFunction::emaOf(std::uint64_t key) const
{
    const std::int64_t *v = ema_.find(key);
    return v != nullptr ? *v : 0;
}

} // namespace halsim::funcs
