#include "txrep/system.h"

#include <algorithm>
#include <utility>

#include "codec/schema_codec.h"
#include "common/clock.h"
#include "obs/names.h"

namespace txrep {

TxRepSystem::TxRepSystem(TxRepOptions options)
    : options_(std::move(options)) {
  if (options_.trace.sample_every > 0) {
    tracer_ = std::make_unique<trace::Tracer>(options_.trace, &registry_);
    db_.log().EnableTracing(tracer_.get());
  }
  cluster_ = std::make_unique<kv::KvCluster>(options_.cluster, &registry_);
  db_.EnableMetrics(&registry_);
  h_readonly_latency_ = registry_.GetHistogram(obs::kReadOnlyLatency);
  if (options_.metrics_report_interval_micros > 0) {
    reporter_ = std::make_unique<obs::PeriodicReporter>(
        &registry_, options_.metrics_report_interval_micros,
        options_.metrics_report_sink);
  }
}

TxRepSystem::~TxRepSystem() {
  reporter_.reset();  // Stop sampling before the pipeline tears down.
  if (slo_ != nullptr) slo_->Stop();  // Poller probes the appliers below.
  if (publisher_ != nullptr) publisher_->Stop();
  // Close wire sessions before broker Shutdown: a session queue stalled on
  // a slow remote subscriber would otherwise park the delivery thread in the
  // fanout and hang the Shutdown join.
  if (net_endpoint_ != nullptr) net_endpoint_->Stop();
  if (broker_ != nullptr) broker_->Shutdown();   // Unblocks the subscriber.
  if (subscriber_ != nullptr) subscriber_->Stop();
  tm_.reset();  // Waits for in-flight transactions.
}

Status TxRepSystem::Start() {
  if (started_) {
    return Status::FailedPrecondition("TxRepSystem already started");
  }
  TXREP_RETURN_IF_ERROR(cluster_->init_status());
  translator_ = std::make_unique<qt::QueryTranslator>(&db_.catalog(),
                                                      options_.blink);
  reader_ = std::make_unique<qt::ReplicaReader>(&db_.catalog(), options_.blink,
                                                &registry_);

  bool resumed = false;
  if (!options_.recovery.checkpoint_dir.empty()) {
    checkpoint_writer_ = std::make_unique<recov::CheckpointWriter>(
        options_.recovery.checkpoint_dir, &registry_);
    checkpoint_writer_->set_faults(options_.recovery.faults);
    if (options_.recovery.resume_from_checkpoint) {
      Result<recov::LoadedCheckpoint> loaded = recov::LoadLatestCheckpoint(
          options_.recovery.checkpoint_dir, &registry_);
      if (loaded.ok()) {
        const uint64_t epoch = loaded->manifest.snapshot_epoch;
        // LSNs are dense, so the log tail is usable iff its first entry past
        // the epoch is exactly epoch + 1 (or the log holds nothing newer).
        std::vector<rel::LogTransaction> head = db_.log().ReadSince(epoch, 1);
        if (!head.empty() && head.front().lsn != epoch + 1) {
          return Status::Corruption(
              "transaction log truncated past checkpoint epoch " +
              std::to_string(epoch) + " (next available LSN is " +
              std::to_string(head.front().lsn) + ")");
        }
        TXREP_RETURN_IF_ERROR(recov::InstallCheckpoint(*loaded, *cluster_));
        if (options_.recovery.compact_after_install) {
          TXREP_RETURN_IF_ERROR(cluster_->CompactAll());
        }
        snapshot_lsn_ = epoch;
        resumed = true;
        resumed_from_checkpoint_ = true;
      } else if (!loaded.status().IsNotFound()) {
        return loaded.status();
      }
    }
  }
  if (!resumed) {
    // Cold start. A reopened disk-backed cluster without a usable checkpoint
    // holds state of an unknown LSN — replaying on top of it would diverge,
    // so drop it and copy the database snapshot fresh.
    if (cluster_->Size() != 0) {
      TXREP_RETURN_IF_ERROR(cluster_->Clear());
    }
    TXREP_RETURN_IF_ERROR(translator_->LoadSnapshot(cluster_.get(), db_));
    snapshot_lsn_ = db_.log().LastLsn();
  }
  const uint64_t snapshot_lsn = snapshot_lsn_;

  if (options_.slo.enabled) {
    slo_ = std::make_unique<trace::SloWatchdog>(options_.slo, &registry_,
                                                tracer_.get());
  }
  if (options_.concurrent_replication) {
    tm_ = std::make_unique<core::TransactionManager>(
        cluster_.get(), translator_.get(), options_.tm, &registry_,
        tracer_.get(), slo_.get());
  } else {
    serial_ = std::make_unique<core::SerialApplier>(
        cluster_.get(), translator_.get(), &registry_,
        core::BatchDispatchOptions{}, tracer_.get(), slo_.get());
  }
  if (slo_ != nullptr) {
    slo_->SetProgressProbe([this] {
      trace::SloProbe probe;
      // Genuinely applied progress: hand-off to the TM is not progress.
      probe.applied_lsn = replica_lsn();
      const uint64_t last = db_.log().LastLsn();
      probe.backlog = last > probe.applied_lsn
                          ? static_cast<int64_t>(last - probe.applied_lsn)
                          : 0;
      return probe;
    });
    slo_->Start();
  }

  broker_ = std::make_unique<mw::Broker>(options_.broker, &registry_);
  mw::PublisherOptions pub_options = options_.publisher;
  pub_options.start_after_lsn = snapshot_lsn;
  publisher_ = std::make_unique<mw::PublisherAgent>(
      &db_.log(), broker_.get(), pub_options, &registry_, tracer_.get());
  subscriber_ = std::make_unique<mw::SubscriberAgent>(
      broker_.get(), pub_options.topic,
      [this](rel::LogTransaction txn) { return ApplySink(std::move(txn)); },
      &registry_, mw::SubscriberOptions{}, tracer_.get());
  publisher_->Start();
  started_ = true;
  return Status::OK();
}

Status TxRepSystem::ApplySink(rel::LogTransaction txn) {
  if (tm_ != nullptr) {
    tm_->SubmitUpdate(std::move(txn));
    return tm_->health();
  }
  // Shared against Checkpoint()'s exclusive hold: a snapshot never
  // observes a transaction half-applied by the serial path.
  check::ReaderMutexLock lock(&apply_gate_);
  return serial_->Apply(txn);
}

Result<recov::CheckpointStats> TxRepSystem::Checkpoint() {
  if (!started_) {
    return Status::FailedPrecondition("TxRepSystem not started");
  }
  if (checkpoint_writer_ == nullptr) {
    return Status::InvalidArgument(
        "no recovery.checkpoint_dir configured for this deployment");
  }
  Result<recov::CheckpointStats> result =
      Status::Internal("checkpoint callback never ran");
  auto write = [&]() -> Status {
    // At the quiescent point the replica holds exactly the applied prefix
    // (submissions are parked, nothing is in flight), so it is the snapshot
    // epoch.
    result = checkpoint_writer_->Write(replica_lsn(), *cluster_);
    return result.ok() ? Status::OK() : result.status();
  };
  if (tm_ != nullptr) {
    TXREP_RETURN_IF_ERROR(tm_->QuiesceBarrier(write));
  } else {
    check::WriterMutexLock lock(&apply_gate_);
    TXREP_RETURN_IF_ERROR(write());
  }
  if (options_.recovery.prune_old_checkpoints) {
    // analyze: discard(best-effort: stale checkpoints are garbage, not corruption)
    (void)checkpoint_writer_->Prune(result->epoch);
  }
  return result;
}

void TxRepSystem::set_checkpoint_faults(
    const recov::CheckpointFaults& faults) {
  options_.recovery.faults = faults;
  if (checkpoint_writer_ != nullptr) checkpoint_writer_->set_faults(faults);
}

Status TxRepSystem::AttachWireEndpoint(net::EndpointOptions options) {
  if (!started_) {
    return Status::FailedPrecondition("call Start() before serving");
  }
  if (net_endpoint_ != nullptr) return Status::OK();
  options.topic = options_.publisher.topic;
  net_endpoint_ =
      std::make_unique<net::NetEndpoint>(broker_.get(), std::move(options),
                                         &registry_);
  net_endpoint_->SetCatalog(codec::EncodeCatalog(db_.catalog()));
  // Everything the publisher shipped before this point never reached the
  // endpoint's retention; a remote replica resuming below it must bootstrap
  // from a checkpoint instead of replaying a stream with a silent gap.
  net_endpoint_->SetRetentionFloor(publisher_->shipped_lsn());
  return Status::OK();
}

Status TxRepSystem::ServeReplication(uint16_t port) {
  TXREP_RETURN_IF_ERROR(AttachWireEndpoint());
  return net_endpoint_->ListenAndServe(port);
}

Status TxRepSystem::SyncToLatest() {
  if (!started_) {
    return Status::FailedPrecondition("TxRepSystem not started");
  }
  TXREP_RETURN_IF_ERROR(publisher_->PumpAll());
  broker_->Flush();
  const uint64_t target = db_.log().LastLsn();
  // Transactions at or below the snapshot LSN were never shipped (the
  // snapshot already contains them) — only wait for genuinely shipped ones.
  if (target > snapshot_lsn_ && !subscriber_->WaitForLsn(target)) {
    Status health = subscriber_->health();
    return health.ok() ? Status::Aborted("subscriber stopped before catch-up")
                       : health;
  }
  if (tm_ != nullptr) {
    return tm_->WaitIdle();
  }
  return subscriber_->health();
}

Result<std::vector<rel::Row>> TxRepSystem::QueryReplica(
    const rel::SelectStatement& stmt) {
  if (!started_) {
    return Status::FailedPrecondition("TxRepSystem not started");
  }
  if (tm_ == nullptr) {
    return QueryReplicaNonTransactional(stmt);
  }
  const int64_t start = NowMicros();
  auto rows = std::make_shared<std::vector<rel::Row>>();
  auto handle = tm_->SubmitReadOnly([this, stmt, rows](kv::KvStore* view) {
    TXREP_ASSIGN_OR_RETURN(*rows, reader_->Select(view, stmt));
    return Status::OK();
  });
  TXREP_RETURN_IF_ERROR(handle->Wait());
  h_readonly_latency_->Record(NowMicros() - start);
  return std::move(*rows);
}

Status TxRepSystem::RunReadOnlyTransaction(
    const std::function<Status(kv::KvStore*, const qt::ReplicaReader&)>&
        body) {
  if (!started_) {
    return Status::FailedPrecondition("TxRepSystem not started");
  }
  const int64_t start = NowMicros();
  Status status;
  if (tm_ == nullptr) {
    status = body(cluster_.get(), *reader_);
  } else {
    auto handle = tm_->SubmitReadOnly(
        [this, &body](kv::KvStore* view) { return body(view, *reader_); });
    status = handle->Wait();
  }
  if (status.ok()) h_readonly_latency_->Record(NowMicros() - start);
  return status;
}

Result<std::vector<rel::Row>> TxRepSystem::QueryReplicaNonTransactional(
    const rel::SelectStatement& stmt) {
  if (reader_ == nullptr) {
    return Status::FailedPrecondition("TxRepSystem not started");
  }
  return reader_->Select(cluster_.get(), stmt);
}

core::TmStats TxRepSystem::tm_stats() const {
  return tm_ != nullptr ? tm_->stats() : core::TmStats{};
}

Result<qt::ConsistencyReport> TxRepSystem::AuditReplica() {
  if (!started_) {
    return Status::FailedPrecondition("TxRepSystem not started");
  }
  return qt::CheckReplicaConsistency(*cluster_, db_, *translator_);
}

uint64_t TxRepSystem::TruncateReplicatedLog() {
  // Only transactions the replica *applied* may be dropped: replica_lsn() is
  // the applied prefix, so in-flight LSNs stay in the log.
  const uint64_t watermark = replica_lsn();
  if (watermark > 0) {
    db_.log().TruncateUpTo(watermark);
  }
  return watermark;
}

uint64_t TxRepSystem::replica_lsn() const {
  uint64_t applied = 0;
  if (tm_ != nullptr) {
    applied = tm_->last_applied_lsn();
  } else if (serial_ != nullptr) {
    applied = serial_->last_applied_lsn();
  }
  return std::max(applied, snapshot_lsn_);
}

}  // namespace txrep
