package smart

import "fmt"

// Sample is one daily SMART snapshot of one disk — the unit record of the
// whole pipeline, equivalent to one row of a Backblaze drive-stats CSV.
type Sample struct {
	Serial string // drive serial number (unique disk identifier)
	Model  string // drive model, e.g. "ST4000DM000"
	Day    int    // days since the start of the observation window
	// Failure mirrors the Backblaze "failure" column: true on the last
	// snapshot a drive reports before it is replaced as failed.
	Failure bool
	// Values holds one value per catalog feature (len == NumFeatures()).
	Values []float64
}

// Clone returns a deep copy of the sample.
func (s Sample) Clone() Sample {
	c := s
	c.Values = append([]float64(nil), s.Values...)
	return c
}

// Value returns the value of the (attrID, kind) feature. It panics if the
// feature is not in the catalog.
func (s Sample) Value(attrID int, kind Kind) float64 {
	i := FeatureIndex(attrID, kind)
	if i < 0 {
		panic(fmt.Sprintf("smart: attribute %d (%v) not in catalog", attrID, kind))
	}
	return s.Values[i]
}

// DaysPerMonth is the month length used to partition sample streams into
// the monthly subsets of sections 4.4-4.5.
const DaysPerMonth = 30

// MonthOfDay converts a day index to its zero-based month index.
func MonthOfDay(day int) int {
	if day < 0 {
		return -1
	}
	return day / DaysPerMonth
}

// Label is the binary class of a training sample: positive means the disk
// will fail within the prediction horizon.
type Label uint8

const (
	// Negative marks a healthy sample (y = 0).
	Negative Label = iota
	// Positive marks a sample within the last PredictionHorizonDays before
	// the disk's failure (y = 1).
	Positive
)

func (l Label) String() string {
	if l == Positive {
		return "positive"
	}
	return "negative"
}

// PredictionHorizonDays is the paper's prediction window: a sample is
// positive iff its disk fails within the next seven days.
const PredictionHorizonDays = 7

// LabeledSample pairs a feature vector with its class for training.
// X aliases the selected-feature view produced by Project; it is not a
// full catalog vector.
type LabeledSample struct {
	X     []float64
	Y     Label
	Day   int    // acquisition day, used for chronological replay
	Disk  string // originating serial, used for disk-level bookkeeping
	Model string
}

// Project extracts the features at idx (catalog indexes) into a dense
// vector, the representation the learners consume.
func Project(values []float64, idx []int) []float64 {
	return AppendProject(make([]float64, 0, len(idx)), values, idx)
}

// AppendProject is Project into dst: it appends the features at idx to
// dst and returns the extended slice.
func AppendProject(dst, values []float64, idx []int) []float64 {
	for _, i := range idx {
		dst = append(dst, values[i])
	}
	return dst
}
