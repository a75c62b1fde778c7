package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"smol/internal/blazeit"
	"smol/internal/codec/vid"
	"smol/internal/engine"
	"smol/internal/img"
	"smol/internal/nn"
	"smol/internal/preproc"
	"smol/internal/store"
	"smol/internal/tensor"
)

// maxReplayOps bounds how many traced ops of each kind are replayed.
const maxReplayOps = 16

// frameReplayer re-runs sampled-frame work through the layer functions:
// GOP-indexed seek and decode, the residual preprocessing chain to the
// model's input, the compiled forward in serving-size batches, and a no-op
// engine pipeline of the same shape.
type frameReplayer struct {
	tr    *tracer
	iplan *nn.InferencePlan
	pipe  *engine.Pipeline
	ex    *preproc.Executor
	plans map[[2]int]preproc.Plan
	batch *tensor.Tensor
	dst   *img.Image
	res   int

	decode, prep, fwd, overhead    time.Duration
	framesDecoded, prepped, fwdImg int
}

// decoder opens a decoder on one stream, armed with its persisted GOP
// index as the server's resident decoders are.
func (r *frameReplayer) decoder(op, parent int, st store.Stream) (*vid.Decoder, error) {
	var dec *vid.Decoder
	if err := r.tr.timed("vid.new_decoder", op, parent, func() (err error) {
		dec, err = vid.NewDecoder(st.Data, vid.DecodeOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	err := r.tr.timed("vid.set_gop_index", op, parent, func() error {
		return dec.SetGOPIndex(st.Index)
	})
	return dec, err
}

// frames seeks dec to each of frames of stream st in turn, decodes and
// preprocesses it, runs the model on batches of up to batch frames, and
// returns the predictions.
func (r *frameReplayer) frames(ctx context.Context, op, parent int, dec *vid.Decoder, st store.Stream, frames []int, batch int) (preds []int, err error) {
	plan, ok := r.plans[[2]int{st.Info.W, st.Info.H}]
	if !ok {
		if err := r.tr.timed("preproc.optimize", op, parent, func() (err error) {
			plan, err = preproc.Optimize(preproc.ServeSpec(st.Info.W, st.Info.H, r.res,
				[3]float32{}, [3]float32{1, 1, 1}, nil))
			return err
		}); err != nil {
			return nil, err
		}
		r.plans[[2]int{st.Info.W, st.Info.H}] = plan
	}
	resid := plan.ResidualAfterDecode()
	per := 3 * r.res * r.res
	out := make([]int, batch)
	for lo := 0; lo < len(frames); lo += batch {
		chunk := frames[lo:min(lo+batch, len(frames))]
		for j, f := range chunk {
			before := dec.Stats().FramesDecoded
			t0 := time.Now()
			if err := dec.SeekFrame(f); err != nil {
				return nil, err
			}
			m, err := dec.NextInto(r.dst)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			r.dst = m
			n := dec.Stats().FramesDecoded - before
			r.tr.record("vid.decode", op, parent, t0, t1, map[string]float64{"frame": float64(f), "frames_decoded": float64(n)})
			x := &tensor.Tensor{Shape: []int{3, r.res, r.res}, Data: r.batch.Data[j*per : (j+1)*per]}
			err = r.ex.Execute(resid, m, x)
			t2 := time.Now()
			r.tr.record("preproc.execute", op, parent, t1, t2, nil)
			if err != nil {
				return nil, err
			}
			r.decode += t1.Sub(t0)
			r.framesDecoded += n
			r.prep += t2.Sub(t1)
			r.prepped++
		}
		n := len(chunk)
		x := &tensor.Tensor{Shape: []int{n, 3, r.res, r.res}, Data: r.batch.Data[:n*per]}
		t0 := time.Now()
		r.iplan.PredictInto(x, out[:n])
		t1 := time.Now()
		r.tr.record("nn.forward", op, parent, t0, t1, map[string]float64{"batch": float64(n)})
		r.fwd += t1.Sub(t0)
		r.fwdImg += n
		preds = append(preds, out[:n]...)
		jobs := make([]engine.Job, n)
		for j := range jobs {
			jobs[j] = engine.Job{Index: j}
		}
		t2 := time.Now()
		if _, err := r.pipe.Process(ctx, engine.SliceSource(jobs)); err != nil {
			return nil, err
		}
		t3 := time.Now()
		r.tr.record("engine.process", op, parent, t2, t3, map[string]float64{"jobs": float64(n)})
		r.overhead += t3.Sub(t2)
	}
	return preds, nil
}

// replay re-runs up to maxReplayOps traced ops of each kind through the
// layer functions, with the plan each op reported, against the live store
// reopened through the store package: SELECTs rank the proxy candidates
// and verify as many as the op did, classifications seek and decode every
// tenth frame, aggregates run the estimator with the replayed model as its
// oracle, and one ingest is repeated with its proxy scoring split out.
func (w *videoStore) replay(ctx context.Context, traced []*opRecord, tr *tracer, m metrics) error {
	w.opMetrics(traced, m)
	m.set("store.reopen_ms", ms(w.reopen), 1)
	m.set("smol.primary_stream_frac", float64(w.setupsPrimary)/float64(w.setups), w.setups)
	if w.ms != nil {
		if err := w.ms.Close(); err != nil {
			return err
		}
		w.ms = nil
	}
	setupSpan := tr.open("replay.setup", -1, 0)
	var st *store.Store
	if err := tr.timed("store.open", -1, setupSpan, func() (err error) {
		st, err = store.Open(w.dir)
		return err
	}); err != nil {
		return err
	}
	defer st.Close()
	r := &frameReplayer{tr: tr, ex: preproc.NewExecutor(), plans: map[[2]int]preproc.Plan{}, res: modelRes,
		batch: tensor.New(videoBatch, 3, modelRes, modelRes)}
	if err := tr.timed("nn.compile", -1, setupSpan, func() (err error) {
		r.iplan, err = nn.Compile(w.clf.Model)
		return err
	}); err != nil {
		return err
	}
	if err := tr.timed("engine.new_pipeline", -1, setupSpan, func() (err error) {
		r.pipe, err = engine.NewPipeline(engine.Config{Shapes: [][3]int{{3, modelRes, modelRes}}, BatchSize: videoBatch},
			func(*engine.WorkerState, engine.Job, *tensor.Tensor) error { return nil },
			func(*tensor.Tensor, []engine.Ref) error { return nil })
		return err
	}); err != nil {
		return err
	}
	defer r.pipe.Close()
	tr.close(setupSpan)

	replayed := map[string]int{}
	var waits []float64
	for _, rec := range traced {
		if rec.failed() || replayed[rec.kind] >= maxReplayOps {
			continue
		}
		replayed[rec.kind]++
		root := tr.open("replay."+rec.kind, rec.id, rec.span)
		prep0, fwd0, img0 := r.prep, r.fwd, r.fwdImg
		var err error
		switch rec.kind {
		case "select":
			err = w.replaySelect(ctx, r, st, rec, root)
		case "classify_video":
			err = w.replayClassify(ctx, r, st, rec, root)
		case "aggregate":
			err = w.replayAggregate(ctx, r, st, rec, root)
		case "ingest":
			err = w.replayIngest(tr, st, rec, root)
		}
		tr.close(root)
		if err != nil {
			return fmt.Errorf("%s op %d: %w", rec.kind, rec.id, err)
		}
		if n := r.fwdImg - img0; n > 0 && rec.stats.Batches > 0 {
			perImg := float64(r.fwd-fwd0) / float64(n)
			perBatch := perImg * float64(rec.stats.Images) / float64(rec.stats.Batches)
			wait := float64(rec.stats.MeanLatency) - float64(r.prep-prep0)/float64(n) - perBatch
			waits = append(waits, wait/float64(time.Millisecond))
		}
	}
	m.set("vid.decode_us_per_frame", us(r.decode)/float64(r.framesDecoded), r.framesDecoded)
	m.set("preproc.us_per_image", us(r.prep)/float64(r.prepped), r.prepped)
	m.set("nn.forward_us_per_image", us(r.fwd)/float64(r.fwdImg), r.fwdImg)
	m.set("nn.gmacs_per_s", w.clf.Config.FLOPsPerImage()/2*float64(r.fwdImg)/r.fwd.Seconds()/1e9, r.fwdImg)
	m.set("engine.overhead_us_per_image", us(r.overhead)/float64(r.fwdImg), r.fwdImg)
	m.set("engine.wait_ms_per_image", mean(waits), len(waits))
	return nil
}

// replaySelect ranks the proxy candidates from the stored score table
// and verifies the op's number of top-ranked candidates.
func (w *videoStore) replaySelect(ctx context.Context, r *frameReplayer, st *store.Store, rec *opRecord, root int) error {
	o := rec.out.(*videoOut)
	v, ok := st.Video(o.video.name)
	if !ok {
		return fmt.Errorf("video %s not in store", o.video.name)
	}
	streams := v.Streams()
	plan := o.sel.Plan
	raw, err := replayScores(r.tr, st, v, plan.ProxyStream, plan.Proxy, rec.id, root)
	if err != nil {
		return err
	}
	var cands []blazeit.Candidate
	r.tr.timed("blazeit.rank", rec.id, root, func() error {
		for f := 0; f < len(raw); f++ {
			if sc := blazeit.ClassScore(raw[f], selectOpts.Class); sc >= selectOpts.MinConf {
				cands = append(cands, blazeit.Candidate{Frame: f, Score: sc})
			}
		}
		blazeit.RankCandidates(cands)
		return nil
	})
	verify := make([]int, 0, o.sel.OracleInvocations)
	for _, c := range cands[:min(o.sel.OracleInvocations, len(cands))] {
		verify = append(verify, c.Frame)
	}
	vs := streams[plan.Verify.Stream]
	dec, err := r.decoder(rec.id, root, vs)
	if err != nil {
		return err
	}
	_, err = r.frames(ctx, rec.id, root, dec, vs, verify, videoBatch)
	return err
}

// replayScores reads a proxy score table the way the op did: from the
// store when it was cached, otherwise by the blob-proxy pass.
func replayScores(tr *tracer, st *store.Store, v *store.Video, stream int, proxy string, op, parent int) ([]float64, error) {
	var raw []float64
	if err := tr.timed("store.scores", op, parent, func() error {
		if t, ok := st.Scores(v.Name, stream, proxy); ok {
			raw = t.Frames
		}
		return nil
	}); err != nil || raw != nil {
		return raw, err
	}
	err := tr.timed("store.blob_scores", op, parent, func() (err error) {
		raw, _, err = store.BlobScores(v.Streams()[stream])
		return err
	})
	return raw, err
}

// replayClassify seeks and decodes every sampled frame of the served
// stream and classifies it.
func (w *videoStore) replayClassify(ctx context.Context, r *frameReplayer, st *store.Store, rec *opRecord, root int) error {
	o := rec.out.(*videoOut)
	v, ok := st.Video(o.video.name)
	if !ok {
		return fmt.Errorf("video %s not in store", o.video.name)
	}
	var frames []int
	for f := 0; f < v.Primary.Info.Frames; f += classifyEvery {
		frames = append(frames, f)
	}
	vs := v.Streams()[o.cls.Plan.Stream]
	dec, err := r.decoder(rec.id, root, vs)
	if err != nil {
		return err
	}
	_, err = r.frames(ctx, rec.id, root, dec, vs, frames, videoBatch)
	return err
}

// replayAggregate runs the control-variate estimator over the stored blob
// scores with the replayed model as the sampled oracle. Like
// EstimateMeanStored it keeps one decoder on the served stream, seeking it
// to each sampled frame, and runs the model on each sample as it comes
// (the server submits every sample to the engine as its own request).
func (w *videoStore) replayAggregate(ctx context.Context, r *frameReplayer, st *store.Store, rec *opRecord, root int) error {
	o := rec.out.(*videoOut)
	v, ok := st.Video(o.video.name)
	if !ok {
		return fmt.Errorf("video %s not in store", o.video.name)
	}
	stream := o.agg.Plan.Stream
	spec, err := replayScores(r.tr, st, v, stream, blazeit.BlobProxyName, rec.id, root)
	if err != nil {
		return err
	}
	vs := v.Streams()[stream]
	est := r.tr.open("blazeit.estimate_mean", rec.id, root)
	dec, err := r.decoder(rec.id, est, vs)
	if err != nil {
		r.tr.close(est)
		return err
	}
	var oracleErr error
	oracle := func(f int) float64 {
		if oracleErr != nil {
			return 0
		}
		preds, err := r.frames(ctx, rec.id, est, dec, vs, []int{f}, 1)
		if err != nil {
			oracleErr = err
			return 0
		}
		return float64(preds[0])
	}
	_, err = blazeit.EstimateMean(spec, oracle, blazeit.Config{ErrTarget: aggErrTarget, Seed: o.seed})
	r.tr.close(est)
	if err != nil {
		return err
	}
	return oracleErr
}

// replayIngest repeats one ingest into the store with the proxy scoring
// split out: the write with its rendition, then the blob-proxy pass and
// the score table per stream.
func (w *videoStore) replayIngest(tr *tracer, st *store.Store, rec *opRecord, root int) error {
	o := rec.out.(*videoOut)
	var v *store.Video
	if err := tr.timed("store.ingest", rec.id, root, func() (err error) {
		v, err = st.Ingest("replay-"+o.ingested.name, w.clips[o.ingested.content].data,
			store.IngestOptions{RenditionShortEdges: ingestOpts.RenditionShortEdges})
		return err
	}); err != nil {
		return err
	}
	for i, s := range v.Streams() {
		var raw []float64
		if err := tr.timed("store.blob_scores", rec.id, root, func() (err error) {
			raw, _, err = store.BlobScores(s)
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("store.put_scores", rec.id, root, func() error {
			_, err := st.PutScores(v.Name, i, blazeit.BlobProxyName, raw)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// opMetrics sets the per-layer metrics that come from the ops' own
// results: decode waste, GOP pruning, cache use, store write
// amplification, cascade and estimator work, and the planner's predicted
// cost against the measured one.
func (w *videoStore) opMetrics(recs []*opRecord, m metrics) {
	var (
		samples, decoded                  int
		touched, gops, oracleCalls, found int
		cached, cacheable                 int
		written, input                    int64
		selects, aggs, covered            int
		targets                           []float64
		predCost, selLatUS                []float64
		predTput, predLat, maxLat         []float64
		clsImages                         int
		clsTime                           time.Duration
		ingests                           int
	)
	for _, r := range recs {
		if r.failed() {
			continue
		}
		o := r.out.(*videoOut)
		switch r.kind {
		case "select":
			selects++
			touched += o.sel.GOPsTouched
			gops += o.sel.GOPsTotal
			oracleCalls += o.sel.OracleInvocations
			found += len(o.sel.Frames)
			cacheable++
			if o.sel.ScoresCached {
				cached++
			}
			predCost = append(predCost, o.sel.Plan.PredictedCostUS)
			selLatUS = append(selLatUS, us(r.dur))
		case "classify_video":
			samples += len(o.cls.Predictions)
			decoded += o.cls.Decode.FramesDecoded
			predTput = append(predTput, o.cls.Plan.PredictedThroughput)
			predLat = append(predLat, o.cls.Plan.PredictedLatencyUS)
			maxLat = append(maxLat, us(r.stats.MaxLatency))
			clsImages += r.stats.Images
			clsTime += r.dur
		case "aggregate":
			aggs++
			cacheable++
			if o.agg.ProxyCached {
				cached++
			}
			targets = append(targets, float64(o.agg.TargetInvocations))
			if math.Abs(o.agg.Estimate-o.truthMean) <= o.agg.HalfWidth {
				covered++
			}
		case "ingest":
			ingests++
			written += o.written
			input += o.input
		}
	}
	engineOpMetrics(recs, videoBatch, m)
	m.set("vid.frames_decoded_per_sample", float64(decoded)/float64(samples), samples)
	m.set("store.gops_touched_frac", float64(touched)/float64(gops), selects)
	m.set("store.scores_cached_frac", float64(cached)/float64(cacheable), cacheable)
	m.set("store.bytes_written_per_input_byte", float64(written)/float64(input), ingests)
	m.set("blazeit.oracle_calls_per_select", float64(oracleCalls)/float64(selects), selects)
	m.set("blazeit.oracle_precision", float64(found)/float64(oracleCalls), selects)
	m.set("blazeit.target_calls_per_aggregate", mean(targets), aggs)
	m.set("blazeit.ci_covers_frac", float64(covered)/float64(aggs), aggs)
	m.set("smol.select_cost_ratio", mean(predCost)/median(selLatUS), selects)
	m.set("smol.pred_tput_ratio", mean(predTput)/(float64(clsImages)/clsTime.Seconds()), len(predTput))
	m.set("smol.pred_latency_ratio", mean(predLat)/median(maxLat), len(maxLat))
}
