// Package detect is the detection substrate: the interfaces the query
// algorithms consume (object detection, action recognition, object
// tracking) together with simulated, deterministically seeded
// implementations standing in for the paper's deep models (Mask R-CNN,
// YOLOv3, I3D, CenterTrack) — see DESIGN.md §1.
//
// Each simulated model is calibrated by a Profile: true-positive rate
// when the label is truly present, a base false-positive rate elsewhere,
// an elevated false-positive rate inside distractor intervals
// (confusable content), score distributions, and a per-invocation
// inference cost used to account for the paper's observation that online
// runtime is dominated (>98%) by model inference.
package detect

import (
	"sync/atomic"
	"time"

	"vaq/internal/annot"
	"vaq/internal/video"
)

// Box is a bounding box in normalized image coordinates ([0,1] square).
type Box struct {
	X, Y, W, H float64
}

// IoU returns the intersection-over-union of two boxes.
func (b Box) IoU(o Box) float64 {
	x1 := max(b.X, o.X)
	y1 := max(b.Y, o.Y)
	x2 := min(b.X+b.W, o.X+o.W)
	y2 := min(b.Y+b.H, o.Y+o.H)
	iw, ih := x2-x1, y2-y1
	if iw <= 0 || ih <= 0 {
		return 0
	}
	inter := iw * ih
	union := b.W*b.H + o.W*o.H - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Detection is one object instance detected on a frame.
type Detection struct {
	Label annot.Label
	Score float64
	Box   Box
	// Track is the tracking identifier assigned by a Tracker; zero means
	// not yet tracked (valid IDs start at 1).
	Track int
}

// ActionScore is the score of one action category on a shot.
type ActionScore struct {
	Label annot.Label
	Score float64
}

// ObjectDetector produces per-frame object detections, the role of
// Mask R-CNN / YOLOv3 in the paper.
type ObjectDetector interface {
	// Name identifies the model (used in reports).
	Name() string
	// Detect returns the detections on frame v for the given labels.
	// Passing the query's labels only mirrors the paper's per-predicate
	// model invocation accounting.
	Detect(v video.FrameIdx, labels []annot.Label) []Detection
}

// ActionRecognizer produces per-shot action scores, the role of I3D.
type ActionRecognizer interface {
	Name() string
	// Recognize returns the scores of the given action labels on shot s.
	Recognize(s video.ShotIdx, labels []annot.Label) []ActionScore
}

// BatchObjectDetector is the optional vectorized face of an object
// detector: one call scores many frames for the same label set,
// amortising per-invocation overhead (GPU batch dispatch in the real
// systems the paper cites). DetectBatch(vs, labels)[i] must be
// byte-identical to Detect(vs[i], labels) — batching is a cost
// optimisation, never a semantic one.
type BatchObjectDetector interface {
	ObjectDetector
	DetectBatch(vs []video.FrameIdx, labels []annot.Label) [][]Detection
}

// BatchActionRecognizer is the shot-level counterpart of
// BatchObjectDetector.
type BatchActionRecognizer interface {
	ActionRecognizer
	RecognizeBatch(ss []video.ShotIdx, labels []annot.Label) [][]ActionScore
}

// ScoreDist is a simple symmetric score distribution: Mean ± Spread
// (triangular via the sum of two uniforms).
type ScoreDist struct {
	Mean, Spread float64
}

func (d ScoreDist) sample(u1, u2 float64) float64 {
	v := d.Mean + (u1+u2-1)*d.Spread
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// Profile calibrates a simulated model.
type Profile struct {
	Name string
	// TPR is the probability that a truly present label yields a
	// detection scoring above threshold on a given occurrence unit.
	TPR float64
	// FPRBase is the false-positive probability per occurrence unit
	// outside distractor intervals.
	FPRBase float64
	// FPRDistractor is the false-positive probability inside distractor
	// intervals (confusable content).
	FPRDistractor float64
	// TPScore and FPScore are the score distributions of true and false
	// detections.
	TPScore, FPScore ScoreDist
	// Cost is the simulated per-invocation inference latency.
	Cost time.Duration
}

// Model profiles mirroring §5.1. The rates are calibration inputs of the
// simulation, chosen so the aggregate F1/FPR landscape matches the
// paper's (EXPERIMENTS.md records the calibration).
var (
	// MaskRCNN stands in for Mask R-CNN (two-stage, more accurate,
	// slower).
	MaskRCNN = Profile{
		Name: "MaskRCNN", TPR: 0.93, FPRBase: 0.030, FPRDistractor: 0.40,
		TPScore: ScoreDist{0.82, 0.15}, FPScore: ScoreDist{0.62, 0.10},
		Cost: 52 * time.Millisecond,
	}
	// YOLOv3 stands in for YOLOv3 (one-stage, faster, noisier).
	YOLOv3 = Profile{
		Name: "YOLOv3", TPR: 0.86, FPRBase: 0.060, FPRDistractor: 0.52,
		TPScore: ScoreDist{0.76, 0.18}, FPScore: ScoreDist{0.64, 0.12},
		Cost: 19 * time.Millisecond,
	}
	// I3D stands in for the I3D action recognizer (per shot). Shot-level
	// action scores are temporally smoother than per-frame object
	// detections, hence the higher TPR and lower noise floor.
	I3D = Profile{
		Name: "I3D", TPR: 0.96, FPRBase: 0.012, FPRDistractor: 0.30,
		TPScore: ScoreDist{0.80, 0.15}, FPScore: ScoreDist{0.63, 0.10},
		Cost: 88 * time.Millisecond,
	}
	// IdealObject and IdealAction match ground truth exactly (§5.1's
	// "Ideal Model").
	IdealObject = Profile{
		Name: "IdealObject", TPR: 1, FPRBase: 0, FPRDistractor: 0,
		TPScore: ScoreDist{0.95, 0}, FPScore: ScoreDist{0, 0},
	}
	IdealAction = Profile{
		Name: "IdealAction", TPR: 1, FPRBase: 0, FPRDistractor: 0,
		TPScore: ScoreDist{0.95, 0}, FPScore: ScoreDist{0, 0},
	}
)

// Thresholds bundles the score thresholds of §2 used to turn raw scores
// into prediction indicators.
type Thresholds struct {
	Object float64 // T_obj
	Action float64 // T_act
}

// DefaultThresholds follows the common practice of the cited detection
// works.
func DefaultThresholds() Thresholds { return Thresholds{Object: 0.5, Action: 0.5} }

// CostMeter accumulates simulated inference time across model
// invocations; safe for concurrent use.
type CostMeter struct {
	nanos atomic.Int64
	calls atomic.Int64
}

// Add records one invocation of the given cost.
func (m *CostMeter) Add(d time.Duration) {
	if m == nil {
		return
	}
	m.nanos.Add(int64(d))
	m.calls.Add(1)
}

// BatchMarginal is the simulated marginal cost of each additional unit
// in a vectorized batch, as a fraction of the per-invocation cost: the
// first unit pays the full dispatch cost, later units ride in the same
// batch (EXPERIMENTS.md records the calibration alongside Profile.Cost).
const BatchMarginal = 0.25

// AddBatch records one vectorized invocation covering n units: one call,
// full cost for the first unit plus BatchMarginal per additional unit.
func (m *CostMeter) AddBatch(d time.Duration, n int) {
	if m == nil || n <= 0 {
		return
	}
	cost := float64(d) * (1 + BatchMarginal*float64(n-1))
	m.nanos.Add(int64(cost))
	m.calls.Add(1)
}

// Total returns the accumulated simulated inference time.
func (m *CostMeter) Total() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.nanos.Load())
}

// Calls returns the number of recorded invocations.
func (m *CostMeter) Calls() int64 {
	if m == nil {
		return 0
	}
	return m.calls.Load()
}
