#include "workload/replay.hpp"

#include "workload/keygen.hpp"

namespace rhik::workload {

double ReplayResult::throughput_mib() const {
  return mib_per_sec(bytes_written + bytes_read, elapsed);
}

double ReplayResult::throughput_ops() const {
  return ops_per_sec(ops, elapsed);
}

ReplayResult replay(kvssd::KvssdDevice& device, const Trace& trace,
                    const ReplayOptions& opts) {
  ReplayResult result;
  const SimTime t0 = device.clock().now();
  Bytes value;
  std::uint32_t in_flight = 0;

  const auto note = [&result](Status s) {
    if (s == Status::kNotFound) {
      result.not_found++;
    } else if (!ok(s)) {
      result.failed_ops++;
    }
  };
  const auto note_get = [&](Status s, std::uint64_t key_id, const Bytes& v) {
    note(s);
    if (ok(s)) {
      result.bytes_read += v.size();
      if (opts.verify_values && !check_value(key_id, v)) result.failed_ops++;
    }
  };
  if (opts.async) {
    // Each command is tagged with its key id, so a get's completion can
    // be checked against the value that id stores.
    device.set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
      for (const api::TaggedCompletion& c : done) {
        if (c.op == api::TaggedCompletion::Op::kGet) {
          note_get(c.status, c.tag, c.value);
        } else {
          note(c.status);
        }
      }
    });
  }

  for (const TraceOp& op : trace) {
    Bytes key = key_for_id(op.key_id, opts.key_size);
    switch (op.type) {
      case OpType::kPut: {
        value.resize(op.value_size);
        fill_value(op.key_id, value);
        result.bytes_written += value.size();
        if (opts.async) {
          device.submit_put_tagged(op.key_id, std::move(key), value);
          in_flight++;
        } else {
          note(device.put(key, value));
        }
        break;
      }
      case OpType::kGet: {
        if (opts.async) {
          device.submit_get_tagged(op.key_id, std::move(key));
          in_flight++;
        } else {
          note_get(device.get(key, &value), op.key_id, value);
        }
        break;
      }
      case OpType::kDel:
        if (opts.async) {
          device.submit_del_tagged(op.key_id, std::move(key));
          in_flight++;
        } else {
          note(device.del(key));
        }
        break;
      case OpType::kExist:
        note(device.exist(key));
        break;
    }
    result.ops++;
    if (opts.async && in_flight >= opts.async_batch) {
      device.drain();
      in_flight = 0;
    }
  }
  if (opts.async) {
    device.drain();
    device.set_completion_sink({});  // the sink refers to this frame
  }
  result.elapsed = device.clock().now() - t0;
  return result;
}

}  // namespace rhik::workload
