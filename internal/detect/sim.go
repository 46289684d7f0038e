package detect

import (
	"vaq/internal/annot"
	"vaq/internal/interval"
	"vaq/internal/video"
)

// Scene is the world a simulated model observes: ground truth plus the
// structures that shape its errors. It mirrors synth.World without
// importing it (the detect package stays independent of how scenes are
// produced).
type Scene struct {
	Truth *annot.Video
	// ObjectDistractors / ActionDistractors mark confusable content per
	// label (frames / shots) where the false-positive rate is elevated.
	ObjectDistractors map[annot.Label]interval.Set
	ActionDistractors map[annot.Label]interval.Set
	// Drift optionally scales the base false-positive rate over time
	// (frame index); nil means constant 1.
	Drift func(frame int) float64
	// LabelAccuracy optionally scales per-label detectability: a factor
	// f > 1 raises the effective TPR (toward 1) and lowers the FPR for
	// that label — e.g. "person" is detected more reliably than "faucet"
	// (Table 3 of the paper leans on this asymmetry). Absent labels use
	// factor 1.
	LabelAccuracy map[annot.Label]float64
	Seed          int64
}

// accuracy returns the detectability factor for label (default 1).
func (sc *Scene) accuracy(label annot.Label) float64 {
	if f, ok := sc.LabelAccuracy[label]; ok && f > 0 {
		return f
	}
	return 1
}

// effectiveRates applies the label's detectability factor to a profile's
// TPR (scaling the miss rate down) and FPR (scaling down).
func effectiveRates(p Profile, f float64) (tpr, fprBase, fprDistract float64) {
	tpr = clamp01(1 - (1-p.TPR)/f)
	return tpr, p.FPRBase / f, p.FPRDistractor / f
}

func (sc *Scene) drift(frame int) float64 {
	if sc.Drift == nil {
		return 1
	}
	return sc.Drift(frame)
}

// SimObjectDetector is a simulated object detector over one scene.
type SimObjectDetector struct {
	scene   *Scene
	profile Profile
	meter   *CostMeter
}

// NewSimObjectDetector builds a detector with the given error profile.
// meter may be nil.
func NewSimObjectDetector(scene *Scene, profile Profile, meter *CostMeter) *SimObjectDetector {
	return &SimObjectDetector{scene: scene, profile: profile, meter: meter}
}

// Name implements ObjectDetector.
func (d *SimObjectDetector) Name() string { return d.profile.Name }

// Detect implements ObjectDetector. Results are deterministic per
// (scene seed, label, frame) regardless of invocation order.
func (d *SimObjectDetector) Detect(v video.FrameIdx, labels []annot.Label) []Detection {
	d.meter.Add(d.profile.Cost)
	return d.detectAll(v, labels)
}

// PerLabelConcat implements the PerLabelConcat marker: detectAll
// concatenates each label's own detections in call order.
func (d *SimObjectDetector) PerLabelConcat() {}

// DetectBatch implements Batcher: one metered invocation covering
// every frame, byte-identical results to per-frame Detect calls (each
// unit is a pure function of (scene seed, label, frame)).
func (d *SimObjectDetector) DetectBatch(vs []video.FrameIdx, labels []annot.Label) [][]Detection {
	if len(vs) == 0 {
		return nil
	}
	d.meter.AddBatch(d.profile.Cost, len(vs))
	out := make([][]Detection, len(vs))
	for i, v := range vs {
		out[i] = d.detectAll(v, labels)
	}
	return out
}

func (d *SimObjectDetector) detectAll(v video.FrameIdx, labels []annot.Label) []Detection {
	var out []Detection
	for _, label := range labels {
		out = append(out, d.detectLabel(v, label)...)
	}
	return out
}

func (d *SimObjectDetector) detectLabel(v video.FrameIdx, label annot.Label) []Detection {
	key := HashKey(d.scene.Seed, "obj:"+string(label), int64(v))
	truth := d.scene.Truth.Objects[label]
	tpr, fprBase, fprDistract := effectiveRates(d.profile, d.scene.accuracy(label))
	if ep, ok := truth.Find(int(v)); ok {
		return d.truePositives(v, label, ep, key, tpr)
	}
	// Label absent: false positive with base or distractor rate.
	fpr := fprBase * d.scene.drift(int(v))
	if d.scene.ObjectDistractors[label].Contains(int(v)) {
		fpr = fprDistract
	}
	if UnitRand(key, 0) >= clamp01(fpr) {
		return nil
	}
	u1, u2 := gaussPair(key, 1)
	return []Detection{{
		Label: label,
		Score: d.profile.FPScore.sample(u1, u2),
		Box:   randomBox(key, 3),
	}}
}

// truePositives emits detections for the instances present during the
// ground-truth episode ep. Each instance is detected independently with
// probability TPR and follows a smooth deterministic trajectory so a
// tracker downstream has realistic work.
func (d *SimObjectDetector) truePositives(v video.FrameIdx, label annot.Label, ep interval.Interval, key uint64, tpr float64) []Detection {
	epKey := HashKey(d.scene.Seed, "ep:"+string(label), int64(ep.Lo))
	instances := 1 + int(splitmix64(epKey)%2) // 1 or 2 instances per episode
	var out []Detection
	for i := 0; i < instances; i++ {
		// One independent draw per instance per frame.
		if UnitRand(key, uint64(10+3*i)) >= tpr {
			continue
		}
		u1, u2 := gaussPair(key, uint64(11+3*i))
		out = append(out, Detection{
			Label: label,
			Score: d.profile.TPScore.sample(u1, u2),
			Box:   trajectoryBox(epKey, i, int(v)-ep.Lo),
		})
	}
	return out
}

// trajectoryBox returns instance i's box at the given offset into its
// episode: constant-velocity motion reflecting off the frame borders.
func trajectoryBox(epKey uint64, i, offset int) Box {
	k := splitmix64(epKey + uint64(i)*0x100000001b3)
	w := 0.10 + 0.20*UnitRand(k, 0)
	h := 0.10 + 0.20*UnitRand(k, 1)
	x0 := UnitRand(k, 2) * (1 - w)
	y0 := UnitRand(k, 3) * (1 - h)
	vx := (UnitRand(k, 4)*2 - 1) * 0.004 // per-frame velocity
	vy := (UnitRand(k, 5)*2 - 1) * 0.004
	return Box{
		X: reflect01(x0+vx*float64(offset), 1-w),
		Y: reflect01(y0+vy*float64(offset), 1-h),
		W: w,
		H: h,
	}
}

// reflect01 folds p into [0, lim] as if bouncing between the walls.
func reflect01(p, lim float64) float64 {
	if lim <= 0 {
		return 0
	}
	period := 2 * lim
	p = p - period*float64(int(p/period))
	if p < 0 {
		p += period
	}
	if p > lim {
		p = period - p
	}
	return p
}

func randomBox(key uint64, n uint64) Box {
	w := 0.08 + 0.25*UnitRand(key, n)
	h := 0.08 + 0.25*UnitRand(key, n+1)
	return Box{
		X: UnitRand(key, n+2) * (1 - w),
		Y: UnitRand(key, n+3) * (1 - h),
		W: w,
		H: h,
	}
}

// SimActionRecognizer is a simulated shot-level action recognizer.
type SimActionRecognizer struct {
	scene   *Scene
	profile Profile
	meter   *CostMeter
}

// NewSimActionRecognizer builds a recognizer with the given error
// profile. meter may be nil.
func NewSimActionRecognizer(scene *Scene, profile Profile, meter *CostMeter) *SimActionRecognizer {
	return &SimActionRecognizer{scene: scene, profile: profile, meter: meter}
}

// Name implements ActionRecognizer.
func (r *SimActionRecognizer) Name() string { return r.profile.Name }

// Recognize implements ActionRecognizer. Deterministic per
// (scene seed, label, shot).
func (r *SimActionRecognizer) Recognize(s video.ShotIdx, labels []annot.Label) []ActionScore {
	r.meter.Add(r.profile.Cost)
	return r.recognizeAll(s, labels)
}

// PerLabelConcat implements the PerLabelConcat marker: recognizeAll
// scores the labels one by one, in call order.
func (r *SimActionRecognizer) PerLabelConcat() {}

// DetectBatch implements Batcher: one metered invocation covering
// every shot, byte-identical to per-shot Recognize.
func (r *SimActionRecognizer) DetectBatch(ss []video.ShotIdx, labels []annot.Label) [][]ActionScore {
	if len(ss) == 0 {
		return nil
	}
	r.meter.AddBatch(r.profile.Cost, len(ss))
	out := make([][]ActionScore, len(ss))
	for i, s := range ss {
		out[i] = r.recognizeAll(s, labels)
	}
	return out
}

func (r *SimActionRecognizer) recognizeAll(s video.ShotIdx, labels []annot.Label) []ActionScore {
	var out []ActionScore
	frame := int(s) * r.scene.Truth.Meta.Geom.ShotLen
	for _, label := range labels {
		key := HashKey(r.scene.Seed, "act:"+string(label), int64(s))
		present := r.scene.Truth.Actions[label].Contains(int(s))
		tpr, fprBase, fprDistract := effectiveRates(r.profile, r.scene.accuracy(label))
		var score float64
		switch {
		case present && UnitRand(key, 0) < tpr:
			u1, u2 := gaussPair(key, 1)
			score = r.profile.TPScore.sample(u1, u2)
		case present:
			// Missed: weak sub-threshold response.
			score = 0.30 * UnitRand(key, 5)
		default:
			fpr := fprBase * r.scene.drift(frame)
			if r.scene.ActionDistractors[label].Contains(int(s)) {
				fpr = fprDistract
			}
			if UnitRand(key, 0) < clamp01(fpr) {
				u1, u2 := gaussPair(key, 1)
				score = r.profile.FPScore.sample(u1, u2)
			}
		}
		if score > 0 {
			out = append(out, ActionScore{Label: label, Score: score})
		}
	}
	return out
}
