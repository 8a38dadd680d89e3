#include "src/train/trainer.h"

#include <chrono>
#include <cmath>
#include <optional>

#include "src/data/batcher.h"
#include "src/data/prefetcher.h"
#include "src/nn/serialize.h"
#include "src/obs/obs.h"
#include "src/tensor/storage.h"
#include "src/train/parallel_step.h"
#include "src/util/contract.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"

namespace unimatch::train {

Trainer::Trainer(model::TwoTowerModel* model,
                 const data::DatasetSplits* splits, TrainConfig config)
    : model_(model),
      splits_(splits),
      config_(std::move(config)),
      rng_(config_.seed) {
  UM_CONTRACT(config_.num_threads >= 1)
      << "num_threads must be >= 1, got " << config_.num_threads;
  optimizer_ = nn::MakeOptimizer(config_.optimizer, model_->Parameters(),
                                 config_.learning_rate);
}

Trainer::~Trainer() = default;

void Trainer::EnsureBceSampler() {
  if (bce_sampler_) return;
  // Canonical pseudo-users as of the end of the training window.
  bce_sampler_ = std::make_unique<data::BceNegativeSampler>(
      splits_->train, splits_->train_marginals, splits_->histories,
      config_.bce_sampling);
}

void Trainer::EnsureSsmSampler() {
  if (!ssm_items_.empty()) return;
  const auto& marg = splits_->train_marginals;
  std::vector<double> freq;
  double total = 0.0;
  for (data::ItemId i = 0; i < marg.num_items(); ++i) {
    if (marg.item_count(i) > 0) {
      ssm_items_.push_back(i);
      freq.push_back(static_cast<double>(marg.item_count(i)));
      total += freq.back();
    }
  }
  UM_CHECK(!ssm_items_.empty());
  ssm_sampler_.Build(freq);
  ssm_log_q_.resize(ssm_items_.size());
  for (size_t k = 0; k < ssm_items_.size(); ++k) {
    ssm_log_q_[k] = static_cast<float>(std::log(freq[k] / total));
  }
}

Status Trainer::TrainMonths(int32_t first_month, int32_t last_month) {
  for (int32_t mo = first_month; mo <= last_month; ++mo) {
    UNIMATCH_RETURN_IF_ERROR(TrainMonth(mo));
  }
  return Status::OK();
}

Status Trainer::TrainMonth(int32_t month) {
  const auto indices = splits_->train.IndicesOfMonth(month);
  if (indices.empty()) return Status::OK();
  UM_TRACE_SPAN("train.month");
  UM_SCOPED_TIMER("train.month.ms");
  UM_COUNTER_INC("train.months");
  UM_GAUGE_SET("train.month.last", month);
  UNIMATCH_RETURN_IF_ERROR(TrainIndices(indices, config_.epochs_per_month));
  if (config_.lr_decay_per_month != 1.0f) {
    optimizer_->SetLearningRate(optimizer_->learning_rate() *
                                config_.lr_decay_per_month);
  }
  return Status::OK();
}

Status Trainer::TrainIndices(const std::vector<int64_t>& indices,
                             int epochs) {
  if (indices.empty()) {
    return Status::InvalidArgument("no training samples given");
  }
  for (int e = 0; e < epochs; ++e) {
    UNIMATCH_RETURN_IF_ERROR(RunEpoch(indices));
    if (config_.verbose) {
      UM_LOG(INFO) << loss::LossKindToString(config_.loss) << " epoch "
                   << (e + 1) << "/" << epochs << " over " << indices.size()
                   << " samples, avg loss " << last_epoch_loss_;
    }
  }
  return Status::OK();
}

Status Trainer::TrainWithEarlyStopping(
    const std::vector<int64_t>& indices, int max_epochs, int patience,
    const std::function<double()>& validation_metric, double min_delta,
    int* epochs_run) {
  if (indices.empty()) {
    return Status::InvalidArgument("no training samples given");
  }
  UM_CHECK_GE(patience, 1);
  auto params = model_->Parameters();
  double best = validation_metric();
  auto best_snapshot = nn::SnapshotParameters(params);
  int since_best = 0;
  int epoch = 0;
  for (; epoch < max_epochs; ++epoch) {
    UNIMATCH_RETURN_IF_ERROR(RunEpoch(indices));
    const double metric = validation_metric();
    if (metric > best + min_delta) {
      best = metric;
      best_snapshot = nn::SnapshotParameters(params);
      since_best = 0;
    } else if (++since_best >= patience) {
      ++epoch;
      break;
    }
  }
  if (epochs_run != nullptr) *epochs_run = epoch;
  return nn::RestoreParameters(best_snapshot, &params);
}

Status Trainer::RunEpoch(const std::vector<int64_t>& indices) {
  UM_TRACE_SPAN("train.epoch");
  UM_SCOPED_TIMER("train.epoch.ms");
  UM_COUNTER_INC("train.epochs");
  const int max_len = splits_->config.window.max_seq_len;
  const bool multinomial = loss::IsMultinomialLoss(config_.loss);
  [[maybe_unused]] const int64_t records_before = records_processed_;
  double loss_sum = 0.0;
  int64_t loss_count = 0;
  [[maybe_unused]] const BufferPool::Stats pool_before =
      BufferPool::Global()->stats();

  const bool parallel = config_.num_threads > 1;
  if (parallel && !sharded_encoder_) {
    sharded_encoder_ =
        std::make_unique<ShardedUserEncoder>(model_, config_.num_threads);
  }
  // Recorded-step execution (DESIGN.md §11): the first step of each shape
  // records the tape pass into a Program; every later same-shape step binds
  // the fresh batch into the program's input slots and replays — bitwise
  // identical, zero graph construction. Dropout makes the recording a
  // tombstone, so those steps stay on the tape without retrying.
  const bool use_programs = nn::kProgramCacheEnabled && config_.use_program_cache;
  const bool dropout_active = model_->config().dropout > 0.0f;
  int64_t epoch_replay_steps = 0;
  int64_t epoch_record_steps = 0;
  using StepClock = std::chrono::steady_clock;
  const auto observe_step = [](StepClock::time_point t0, bool replayed,
                               bool recorded) {
    [[maybe_unused]] const double ms =
        std::chrono::duration<double, std::milli>(StepClock::now() - t0)
            .count();
    if (replayed) {
      UM_HISTOGRAM_OBSERVE("exec.program.replay.ms", ms);
    } else if (recorded) {
      UM_HISTOGRAM_OBSERVE("exec.program.record.ms", ms);
    } else {
      UM_HISTOGRAM_OBSERVE("exec.program.tape.ms", ms);
    }
  };
  // Routes the row-local op loops (softmax, normalize, optimizer updates)
  // through the step pool for the duration of the epoch. A null region is
  // the plain serial behavior.
  ScopedParallelRegion region(parallel ? sharded_encoder_->pool() : nullptr);
  if (parallel) {
    UM_GAUGE_SET("train.pipeline.threads", config_.num_threads);
  }

  if (multinomial) {
    data::BatchIterator it(&splits_->train, &splits_->train_marginals,
                           indices, config_.batch_size, max_len, &rng_);
    data::Batch batch;
    if (config_.loss == loss::LossKind::kSsm) EnsureSsmSampler();
    // Per-step workspace, reused across every step of the epoch: steady
    // state allocates nothing here (the last, smaller batch reshapes once).
    std::vector<int64_t> neg_ids(config_.ssm_num_negatives);
    Tensor log_q_neg = Tensor::Empty({config_.ssm_num_negatives});
    Tensor log_q_pos;
    // BatchIterator::Next is RNG-free (the shuffle happens in Reset), so
    // prefetching it on a background thread cannot perturb the training
    // RNG stream. Gated on `parallel` to keep num_threads = 1 exactly the
    // single-threaded seed behavior.
    std::unique_ptr<data::BatchPrefetcher> prefetch;
    if (parallel) {
      prefetch = std::make_unique<data::BatchPrefetcher>(
          [&it](data::Batch* b, Tensor* /*labels*/) { return it.Next(b); });
    }
    const bool ssm = config_.loss == loss::LossKind::kSsm;
    const int s = config_.ssm_num_negatives;
    while (prefetch ? prefetch->Next(&batch) : it.Next(&batch)) {
      UM_SCOPED_TIMER("train.step.ms");
      const auto step_start = StepClock::now();
      nn::ProgramKey key;
      std::shared_ptr<nn::Program> program;
      if (use_programs) {
        const int64_t bsz = batch.batch_size;
        key = nn::ProgramKey::Make(
            "train.step",
            {static_cast<int64_t>(config_.loss), bsz,
             bsz > 0 ? static_cast<int64_t>(batch.history_ids.size()) / bsz
                     : 0,
             ssm ? s : 0, parallel ? 1 : 0, dropout_active ? 1 : 0});
        program = program_cache_.Lookup(key);
      }
      if (program && program->replayable()) {
        // Steady state: refresh the program's input slots from this batch
        // and replay. The SSM sampling is hoisted ahead of the encoders —
        // with dropout off (implied by replayable) nothing else consumes
        // rng_ in a step, so the RNG stream matches the tape order.
        if (ssm) {
          for (int k = 0; k < s; ++k) {
            const int64_t slot = ssm_sampler_.Sample(&rng_);
            neg_ids[k] = ssm_items_[slot];
            log_q_neg.at(k) = ssm_log_q_[slot];
          }
          if (log_q_pos.numel() != batch.batch_size ||
              log_q_pos.rank() != 1) {
            log_q_pos = Tensor::Empty({batch.batch_size});
          }
          for (int64_t r = 0; r < batch.batch_size; ++r) {
            log_q_pos.at(r) = batch.log_pi.at(r);
          }
          program->BindIds("ssm.neg_ids", neg_ids);
          program->BindInput("ssm.log_q_pos", log_q_pos);
          program->BindInput("ssm.log_q_neg", log_q_neg);
        } else {
          program->BindInput("loss.log_pu", batch.log_pu);
          program->BindInput("loss.log_pi", batch.log_pi);
        }
        program->BindIds("user.ids", batch.history_ids);
        program->BindIds("user.len", batch.lengths);
        program->BindIds("item.ids", batch.targets);
        program->ReplayStep();
        UM_CHECK_FINITE(program->root_value())
            << loss::LossKindToString(config_.loss) << " loss at step "
            << total_steps_;
        if (config_.grad_clip > 0.0f) {
          optimizer_->ClipAndStep(config_.grad_clip);
        } else {
          optimizer_->Step();
        }
        optimizer_->ZeroGrad();
        records_processed_ += batch.batch_size + (ssm ? s : 0);
        loss_sum += program->root_value().item();
        ++epoch_replay_steps;
        observe_step(step_start, /*replayed=*/true, /*recorded=*/false);
        ++loss_count;
        ++total_steps_;
        continue;
      }
      // Tape step; additionally records a new program on a cache miss (a
      // tombstone hit — dropout or an opaque op at this shape — stays
      // tape-only without re-recording).
      const bool record = use_programs && program == nullptr;
      std::optional<nn::ProgramRecorder> rec;
      if (record) rec.emplace();
      const std::vector<int64_t>* uids = &batch.history_ids;
      const std::vector<int64_t>* ulen = &batch.lengths;
      const std::vector<int64_t>* tids = &batch.targets;
      if (rec) {
        uids = &rec->BindIds("user.ids", batch.history_ids);
        ulen = &rec->BindIds("user.len", batch.lengths);
        tids = &rec->BindIds("item.ids", batch.targets);
      }
      nn::Variable users = parallel
                               ? sharded_encoder_->Encode(*uids, *ulen, &rng_)
                               : model_->EncodeUsers(*uids, *ulen, &rng_);
      nn::Variable items = model_->EncodeItems(*tids);
      nn::Variable loss_var;
      if (ssm) {
        for (int k = 0; k < s; ++k) {
          const int64_t slot = ssm_sampler_.Sample(&rng_);
          neg_ids[k] = ssm_items_[slot];
          log_q_neg.at(k) = ssm_log_q_[slot];
        }
        if (log_q_pos.numel() != batch.batch_size || log_q_pos.rank() != 1) {
          log_q_pos = Tensor::Empty({batch.batch_size});
        }
        for (int64_t r = 0; r < batch.batch_size; ++r) {
          // The positive's proposal probability under the unigram q is its
          // empirical marginal.
          log_q_pos.at(r) = batch.log_pi.at(r);
        }
        const std::vector<int64_t>* nids = &neg_ids;
        const Tensor* lqp = &log_q_pos;
        const Tensor* lqn = &log_q_neg;
        if (rec) {
          nids = &rec->BindIds("ssm.neg_ids", neg_ids);
          lqp = &rec->BindInput("ssm.log_q_pos", log_q_pos);
          lqn = &rec->BindInput("ssm.log_q_neg", log_q_neg);
        }
        nn::Variable neg_items = model_->EncodeItems(*nids);
        nn::Variable pos_scores = model_->ScorePairs(users, items);
        nn::Variable neg_scores = model_->ScoreMatrix(users, neg_items);
        loss_var = loss::SampledSoftmaxLoss(pos_scores, neg_scores, *lqp,
                                            *lqn);
        records_processed_ += batch.batch_size + s;
      } else {
        const Tensor* lpu = &batch.log_pu;
        const Tensor* lpi = &batch.log_pi;
        if (rec) {
          lpu = &rec->BindInput("loss.log_pu", batch.log_pu);
          lpi = &rec->BindInput("loss.log_pi", batch.log_pi);
        }
        nn::Variable scores = model_->ScoreMatrix(users, items);
        loss_var = loss::NceFamilyLoss(scores, *lpu, *lpi,
                                       loss::SettingsFor(config_.loss));
        records_processed_ += batch.batch_size;
      }
      UM_CHECK_FINITE(loss_var.value())
          << loss::LossKindToString(config_.loss) << " loss at step "
          << total_steps_;
      if (rec) {
        program_cache_.Insert(key, rec->Finish(loss_var));
        ++epoch_record_steps;
      }
      nn::Backward(loss_var);
      if (parallel) sharded_encoder_->FinishBackward();
      if (config_.grad_clip > 0.0f) {
        optimizer_->ClipGradNorm(config_.grad_clip);
      }
      optimizer_->Step();
      optimizer_->ZeroGrad();
      loss_sum += loss_var.value().item();
      observe_step(step_start, /*replayed=*/false, /*recorded=*/record);
      ++loss_count;
      ++total_steps_;
    }
  } else {
    EnsureBceSampler();
    // Iterate positive indices in shuffled batches; each batch is doubled
    // with freshly drawn negatives (1:1 per the paper).
    std::vector<int64_t> shuffled = indices;
    rng_.Shuffle(&shuffled);
    std::vector<int64_t> idx;  // per-step workspace, reused across steps
    idx.reserve(config_.batch_size);
    size_t begin = 0;
    auto produce_next = [&](data::Batch* b, Tensor* labels) -> bool {
      if (begin >= shuffled.size()) return false;
      const size_t end =
          std::min(shuffled.size(), begin + config_.batch_size);
      if (end - begin < 2) return false;
      idx.assign(shuffled.begin() + begin, shuffled.begin() + end);
      begin = end;
      data::AssembleBceBatchInto(splits_->train, idx,
                                 splits_->train_marginals, max_len,
                                 *bce_sampler_, &rng_, b, labels);
      return true;
    };
    // The producer draws negatives from rng_, so it may only run on a
    // background thread when the consuming step leaves rng_ alone — i.e.
    // when dropout is off (dropout is the only other rng_ user here).
    const bool can_prefetch =
        parallel && model_->config().dropout == 0.0f;
    std::unique_ptr<data::BatchPrefetcher> prefetch;
    if (can_prefetch) {
      prefetch = std::make_unique<data::BatchPrefetcher>(produce_next);
    }
    data::Batch batch;
    Tensor labels;
    while (prefetch ? prefetch->Next(&batch, &labels)
                    : produce_next(&batch, &labels)) {
      UM_SCOPED_TIMER("train.step.ms");
      const auto step_start = StepClock::now();
      nn::ProgramKey key;
      std::shared_ptr<nn::Program> program;
      if (use_programs) {
        const int64_t bsz = batch.batch_size;
        key = nn::ProgramKey::Make(
            "train.step",
            {static_cast<int64_t>(config_.loss), bsz,
             bsz > 0 ? static_cast<int64_t>(batch.history_ids.size()) / bsz
                     : 0,
             0, parallel ? 1 : 0, dropout_active ? 1 : 0});
        program = program_cache_.Lookup(key);
      }
      if (program && program->replayable()) {
        // Steady state: rebind this batch (the negatives were already drawn
        // by the producer, so replay leaves rng_ exactly where the tape
        // step would) and replay the recorded pass.
        program->BindIds("user.ids", batch.history_ids);
        program->BindIds("user.len", batch.lengths);
        program->BindIds("item.ids", batch.targets);
        program->BindInput("loss.labels", labels);
        program->ReplayStep();
        UM_CHECK_FINITE(program->root_value())
            << "BCE loss at step " << total_steps_;
        if (config_.grad_clip > 0.0f) {
          optimizer_->ClipAndStep(config_.grad_clip);
        } else {
          optimizer_->Step();
        }
        optimizer_->ZeroGrad();
        records_processed_ += batch.batch_size;
        loss_sum += program->root_value().item();
        ++epoch_replay_steps;
        observe_step(step_start, /*replayed=*/true, /*recorded=*/false);
        ++loss_count;
        ++total_steps_;
        continue;
      }
      const bool record = use_programs && program == nullptr;
      std::optional<nn::ProgramRecorder> rec;
      if (record) rec.emplace();
      const std::vector<int64_t>* uids = &batch.history_ids;
      const std::vector<int64_t>* ulen = &batch.lengths;
      const std::vector<int64_t>* tids = &batch.targets;
      const Tensor* plabels = &labels;
      if (rec) {
        uids = &rec->BindIds("user.ids", batch.history_ids);
        ulen = &rec->BindIds("user.len", batch.lengths);
        tids = &rec->BindIds("item.ids", batch.targets);
        plabels = &rec->BindInput("loss.labels", labels);
      }
      nn::Variable users = parallel
                               ? sharded_encoder_->Encode(*uids, *ulen, &rng_)
                               : model_->EncodeUsers(*uids, *ulen, &rng_);
      nn::Variable items = model_->EncodeItems(*tids);
      nn::Variable scores = model_->ScorePairs(users, items);
      nn::Variable loss_var = loss::BceLoss(scores, *plabels);
      UM_CHECK_FINITE(loss_var.value())
          << "BCE loss at step " << total_steps_;
      if (rec) {
        program_cache_.Insert(key, rec->Finish(loss_var));
        ++epoch_record_steps;
      }
      nn::Backward(loss_var);
      if (parallel) sharded_encoder_->FinishBackward();
      if (config_.grad_clip > 0.0f) {
        optimizer_->ClipGradNorm(config_.grad_clip);
      }
      optimizer_->Step();
      optimizer_->ZeroGrad();
      records_processed_ += batch.batch_size;
      loss_sum += loss_var.value().item();
      observe_step(step_start, /*replayed=*/false, /*recorded=*/record);
      ++loss_count;
      ++total_steps_;
    }
  }
  last_epoch_loss_ = loss_count > 0 ? loss_sum / loss_count : 0.0;
  replay_steps_ += epoch_replay_steps;
  record_steps_ += epoch_record_steps;
  UM_GAUGE_SET("train.exec.replay_steps", epoch_replay_steps);
  UM_GAUGE_SET("train.exec.record_steps", epoch_record_steps);
  UM_COUNTER_ADD("train.steps", loss_count);
  UM_COUNTER_ADD("train.records", records_processed_ - records_before);
  UM_GAUGE_SET("train.epoch.loss", last_epoch_loss_);
  if (loss_count > 0) {
    // Allocation pressure of this epoch, normalized per step: pool acquires
    // approximate what the pre-pool code paid in heap allocations; misses
    // are the allocations that actually reached the heap.
    [[maybe_unused]] const BufferPool::Stats pool_after =
        BufferPool::Global()->stats();
    UM_GAUGE_SET("train.pool.acquires_per_step",
                 static_cast<double>(pool_after.acquires -
                                     pool_before.acquires) /
                     static_cast<double>(loss_count));
    UM_GAUGE_SET("train.pool.heap_allocs_per_step",
                 static_cast<double>(pool_after.misses - pool_before.misses) /
                     static_cast<double>(loss_count));
  }
  return Status::OK();
}

}  // namespace unimatch::train
