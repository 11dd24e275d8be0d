// Package dataset synthesizes the three evaluation workloads of the paper.
// The originals (JIGSAWS surgical kinematics, UCI Beijing air temperature,
// ESA Mars Express power) are licensed recordings we cannot ship; each
// generator below preserves the statistical property the corresponding
// experiment probes — informative features that are *circular* (angles,
// day-of-year, hour-of-day, orbital phase), with clusters and trends that
// straddle the wrap-around point.
//
// All generators are deterministic in (config, seed).
package dataset

import (
	"fmt"
	"math"

	"hdcirc/internal/dist"
	"hdcirc/internal/rng"
)

// ---------------------------------------------------------------------------
// Surgical gestures (JIGSAWS substitute)
// ---------------------------------------------------------------------------

// GestureSample is one kinematic observation: angular features in [0, 2π)
// and a gesture class label.
type GestureSample struct {
	Features []float64 // wrapped angles, one per kinematic variable
	Label    int       // gesture id in [0, NumGestures)
}

// GestureConfig parameterizes the synthetic surgical-gesture generator.
type GestureConfig struct {
	Task            string  // "knot-tying" | "needle-passing" | "suturing" (any label; seeds the cluster layout)
	NumGestures     int     // classes; the paper's JIGSAWS has 15
	NumFeatures     int     // kinematic variables; the paper uses 18 (two manipulators' rotation matrices)
	TrainPerGesture int     // samples per gesture in the training split ("surgeon D")
	TestPerGesture  int     // samples per gesture in the test split (other surgeons)
	KappaTrain      float64 // von Mises concentration of the training surgeon (higher = more consistent)
	KappaTest       float64 // concentration of the test surgeons (lower = sloppier)
	WrapFraction    float64 // fraction of per-feature posture templates placed near the 0/2π seam
	KappaSep        float64 // concentration of gesture means around the per-feature template; 0 = independent uniform means (maximally separated classes)
	NumTestSurgeons int     // test executions come from this many surgeons, each with a personal style offset (0 or 1 = no domain shift)
	KappaBias       float64 // concentration of each test surgeon's per-feature style offset around 0; lower = stronger domain shift
	WildFraction    float64 // probability that a test surgeon executes a feature idiosyncratically (uniform offset) — irreducible error for every encoding
}

// DefaultGestureConfig mirrors the paper's task shape: 15 gestures over 18
// angular kinematic variables.
func DefaultGestureConfig(task string) GestureConfig {
	return GestureConfig{
		Task:            task,
		NumGestures:     15,
		NumFeatures:     18,
		TrainPerGesture: 40,
		TestPerGesture:  25,
		KappaTrain:      18,
		KappaTest:       8,
		WrapFraction:    0.6,
		KappaSep:        0,
		NumTestSurgeons: 6,
		KappaBias:       30,
		WildFraction:    0.3,
	}
}

// GestureDataset holds the train/test splits of one surgical task.
type GestureDataset struct {
	Config GestureMeta
	Train  []GestureSample
	Test   []GestureSample
}

// GestureMeta is re-exported configuration metadata (kept nested
// to avoid confusion with GestureConfig's generator knobs).
type GestureMeta struct {
	Task        string
	NumGestures int
	NumFeatures int
}

// GenGestures synthesizes one surgical task. Each gesture g has a mean
// angle per feature; a WrapFraction share of those means sit within ±0.15
// rad of the 0/2π seam, which is exactly where level encodings break. The
// training split plays the paper's "surgeon D" (concentrated executions);
// the test split draws from the same means with lower concentration.
func GenGestures(cfg GestureConfig, seed uint64) *GestureDataset {
	if cfg.NumGestures <= 1 {
		panic(fmt.Sprintf("dataset: need at least 2 gestures, got %d", cfg.NumGestures))
	}
	if cfg.NumFeatures <= 0 {
		panic(fmt.Sprintf("dataset: need at least 1 feature, got %d", cfg.NumFeatures))
	}
	if cfg.KappaTrain < 0 || cfg.KappaTest < 0 {
		panic("dataset: negative concentration")
	}
	if cfg.WrapFraction < 0 || cfg.WrapFraction > 1 {
		panic(fmt.Sprintf("dataset: wrap fraction %v outside [0,1]", cfg.WrapFraction))
	}
	layout := rng.Sub(seed, "gestures/layout/"+cfg.Task)
	// Per-feature posture template: the shared arm position the gestures
	// are variations of. A WrapFraction share of templates sit near the
	// 0/2π seam, which is exactly where level encodings break.
	template := make([]float64, cfg.NumFeatures)
	for f := range template {
		if layout.Float64() < cfg.WrapFraction {
			template[f] = dist.WrapAngle(dist.Uniform(layout, -0.15, 0.15))
		} else {
			template[f] = dist.Uniform(layout, 0, 2*math.Pi)
		}
	}
	// Gesture means deviate from the template with concentration KappaSep:
	// low KappaSep separates the classes widely; high KappaSep makes them
	// genuinely confusable, as surgical sub-motions are.
	means := make([][]float64, cfg.NumGestures)
	for g := range means {
		means[g] = make([]float64, cfg.NumFeatures)
		for f := range means[g] {
			if cfg.KappaSep == 0 {
				means[g][f] = dist.Uniform(layout, 0, 2*math.Pi)
				if layout.Float64() < cfg.WrapFraction {
					means[g][f] = dist.WrapAngle(dist.Uniform(layout, -0.15, 0.15))
				}
			} else {
				means[g][f] = dist.VonMises(layout, template[f], cfg.KappaSep)
			}
		}
	}
	// gen draws `per` executions of every gesture. A non-nil bias is the
	// executing surgeon's personal style: a fixed per-feature angular
	// offset added to every gesture mean — the domain shift between the
	// training surgeon and the test surgeons.
	gen := func(stream *rng.Stream, per int, kappa float64, bias []float64) []GestureSample {
		out := make([]GestureSample, 0, per*cfg.NumGestures)
		for g := 0; g < cfg.NumGestures; g++ {
			for s := 0; s < per; s++ {
				feat := make([]float64, cfg.NumFeatures)
				for f := range feat {
					mu := means[g][f]
					if bias != nil {
						mu = dist.WrapAngle(mu + bias[f])
					}
					feat[f] = dist.VonMises(stream, mu, kappa)
				}
				out = append(out, GestureSample{Features: feat, Label: g})
			}
		}
		// Interleave classes so chronological consumers see mixed labels.
		stream.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	testStream := rng.Sub(seed, "gestures/test/"+cfg.Task)
	var test []GestureSample
	if cfg.NumTestSurgeons > 1 && cfg.KappaBias > 0 {
		per := cfg.TestPerGesture / cfg.NumTestSurgeons
		rem := cfg.TestPerGesture - per*cfg.NumTestSurgeons
		for s := 0; s < cfg.NumTestSurgeons; s++ {
			bias := make([]float64, cfg.NumFeatures)
			for f := range bias {
				if testStream.Float64() < cfg.WildFraction {
					bias[f] = dist.Uniform(testStream, 0, 2*math.Pi)
				} else {
					bias[f] = dist.VonMises(testStream, 0, cfg.KappaBias)
				}
			}
			n := per
			if s < rem {
				n++
			}
			if n == 0 {
				continue
			}
			test = append(test, gen(testStream, n, cfg.KappaTest, bias)...)
		}
		testStream.Shuffle(len(test), func(i, j int) { test[i], test[j] = test[j], test[i] })
	} else {
		test = gen(testStream, cfg.TestPerGesture, cfg.KappaTest, nil)
	}
	return &GestureDataset{
		Config: GestureMeta{Task: cfg.Task, NumGestures: cfg.NumGestures, NumFeatures: cfg.NumFeatures},
		Train:  gen(rng.Sub(seed, "gestures/train/"+cfg.Task), cfg.TrainPerGesture, cfg.KappaTrain, nil),
		Test:   test,
	}
}

// ---------------------------------------------------------------------------
// Hourly temperature series (Beijing substitute)
// ---------------------------------------------------------------------------

// TempSample is one hourly weather-station observation.
type TempSample struct {
	YearIndex int     // 0-based year since series start (level-encoded in the paper)
	DayOfYear float64 // [0, 365)
	HourOfDay float64 // [0, 24)
	Temp      float64 // °C
}

// TempConfig parameterizes the synthetic temperature series.
type TempConfig struct {
	Years         int     // series length in years (paper: ~4, Mar 2013–Feb 2017)
	HourStep      int     // sampling stride in hours (1 = hourly)
	MeanTemp      float64 // annual mean, °C
	AnnualAmp     float64 // amplitude of the seasonal sinusoid
	DiurnalAmp    float64 // amplitude of the day/night sinusoid
	PeakDay       float64 // day-of-year of the seasonal maximum
	PeakHour      float64 // hour-of-day of the diurnal maximum
	WarmingPerYr  float64 // slow trend, °C per year (the level-encoded year captures this)
	NoiseSD       float64 // AR(1) innovation standard deviation
	NoisePhi      float64 // AR(1) coefficient
	StartDayShift float64 // day-of-year of the first sample (61 ≈ March 1st, as in the paper's span)
}

// DefaultTempConfig approximates Beijing's climate shape.
func DefaultTempConfig() TempConfig {
	return TempConfig{
		Years:         4,
		HourStep:      3,
		MeanTemp:      13,
		AnnualAmp:     15,
		DiurnalAmp:    4,
		PeakDay:       197, // mid July
		PeakHour:      15,
		WarmingPerYr:  0.15,
		NoiseSD:       1.4,
		NoisePhi:      0.85,
		StartDayShift: 61,
	}
}

// GenTemperature synthesizes the chronological hourly series:
//
//	T(t) = mean + annual·cos(2π(doy−peakDay)/365)
//	            + diurnal·cos(2π(hour−peakHour)/24)
//	            + warming·years + AR(1) noise.
//
// Day-of-year and hour-of-day are circular proxies of the earth's orbital
// and rotational phase, exactly as the paper argues.
func GenTemperature(cfg TempConfig, seed uint64) []TempSample {
	if cfg.Years <= 0 {
		panic(fmt.Sprintf("dataset: years must be positive, got %d", cfg.Years))
	}
	if cfg.HourStep <= 0 {
		panic(fmt.Sprintf("dataset: hour step must be positive, got %d", cfg.HourStep))
	}
	hoursTotal := cfg.Years * 365 * 24
	n := hoursTotal / cfg.HourStep
	noise := dist.AR1(rng.Sub(seed, "temperature/noise"), n, cfg.NoisePhi, cfg.NoiseSD)
	out := make([]TempSample, n)
	for i := 0; i < n; i++ {
		hAbs := float64(i * cfg.HourStep)
		dayAbs := hAbs/24 + cfg.StartDayShift
		year := int(dayAbs / 365)
		doy := math.Mod(dayAbs, 365)
		hod := math.Mod(hAbs, 24)
		temp := cfg.MeanTemp +
			cfg.AnnualAmp*math.Cos(2*math.Pi*(doy-cfg.PeakDay)/365) +
			cfg.DiurnalAmp*math.Cos(2*math.Pi*(hod-cfg.PeakHour)/24) +
			cfg.WarmingPerYr*(dayAbs/365) +
			noise[i]
		out[i] = TempSample{YearIndex: year, DayOfYear: doy, HourOfDay: hod, Temp: temp}
	}
	return out
}

// SplitChronological splits a slice at the given fraction: the paper trains
// on the first 70% of the Beijing series and tests on the last 30%.
func SplitChronological[T any](xs []T, trainFrac float64) (train, test []T) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("dataset: train fraction %v outside (0,1)", trainFrac))
	}
	cut := int(float64(len(xs)) * trainFrac)
	return xs[:cut], xs[cut:]
}

// ---------------------------------------------------------------------------
// Orbital power series (Mars Express substitute)
// ---------------------------------------------------------------------------

// OrbitSample is one telemetry reading of the satellite power budget.
type OrbitSample struct {
	MeanAnomaly float64 // elapsed fraction of the orbit as an angle in [0, 2π)
	Power       float64 // available power, W (arbitrary synthetic scale)
}

// OrbitConfig parameterizes the synthetic power model.
type OrbitConfig struct {
	N           int     // number of telemetry samples
	BasePower   float64 // mean available power
	Harmonic1   float64 // first orbital harmonic amplitude
	Phase1      float64 // first harmonic phase (radians)
	Harmonic2   float64 // second harmonic amplitude
	Phase2      float64 // second harmonic phase (radians)
	EclipseDip  float64 // depth of the sharp eclipse feature
	EclipseAt   float64 // mean anomaly of the eclipse center (radians)
	EclipseWide float64 // eclipse angular width (radians)
	NoiseSD     float64 // measurement noise
}

// Clean returns the noise-free power at mean anomaly theta under the
// config — the generator's regression target, exported so tests and
// baselines can compute residuals.
func (cfg OrbitConfig) Clean(theta float64) float64 {
	sep := math.Abs(math.Mod(theta-cfg.EclipseAt+3*math.Pi, 2*math.Pi) - math.Pi)
	return cfg.BasePower +
		cfg.Harmonic1*math.Cos(theta-cfg.Phase1) +
		cfg.Harmonic2*math.Cos(2*theta-cfg.Phase2) -
		cfg.EclipseDip*math.Exp(-sep*sep/(2*cfg.EclipseWide*cfg.EclipseWide))
}

// DefaultOrbitConfig approximates the Mars Express thermal-power shape: a
// smooth orbital modulation plus a sharp eclipse dip that *straddles the
// anomaly wrap point*, the regime where circular encodings matter most.
func DefaultOrbitConfig() OrbitConfig {
	return OrbitConfig{
		N:           1500,
		BasePower:   450,
		Harmonic1:   40,
		Phase1:      0.6,
		Harmonic2:   18,
		Phase2:      1.9,
		EclipseDip:  60,
		EclipseAt:   0.05, // just past perihelion: the dip straddles the anomaly wrap seam
		EclipseWide: 0.8,
		NoiseSD:     20,
	}
}

// GenOrbitPower synthesizes telemetry with mean anomalies uniform on the
// circle:
//
//	P(θ) = base + h1·cos(θ−φ1) + h2·cos(2θ−φ2) − dip·exp(−arcdist(θ,c)²/2w²) + ε.
func GenOrbitPower(cfg OrbitConfig, seed uint64) []OrbitSample {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("dataset: sample count must be positive, got %d", cfg.N))
	}
	if cfg.EclipseWide <= 0 {
		panic("dataset: eclipse width must be positive")
	}
	r := rng.Sub(seed, "orbitpower")
	out := make([]OrbitSample, cfg.N)
	for i := range out {
		theta := dist.Uniform(r, 0, 2*math.Pi)
		out[i] = OrbitSample{
			MeanAnomaly: theta,
			Power:       cfg.Clean(theta) + dist.Normal(r, 0, cfg.NoiseSD),
		}
	}
	return out
}

// SplitRandom partitions xs into train/test with the given train fraction,
// shuffling with the provided stream (the paper splits Mars Express
// randomly 70/30).
func SplitRandom[T any](xs []T, trainFrac float64, r *rng.Stream) (train, test []T) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("dataset: train fraction %v outside (0,1)", trainFrac))
	}
	shuffled := make([]T, len(xs))
	copy(shuffled, xs)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cut := int(float64(len(shuffled)) * trainFrac)
	return shuffled[:cut], shuffled[cut:]
}

// TempRange returns the min and max temperature of a series — used to size
// the label encoder's interval.
func TempRange(xs []TempSample) (lo, hi float64) {
	if len(xs) == 0 {
		panic("dataset: range of empty series")
	}
	lo, hi = xs[0].Temp, xs[0].Temp
	for _, s := range xs {
		lo = math.Min(lo, s.Temp)
		hi = math.Max(hi, s.Temp)
	}
	return lo, hi
}

// PowerRange returns the min and max power of a series.
func PowerRange(xs []OrbitSample) (lo, hi float64) {
	if len(xs) == 0 {
		panic("dataset: range of empty series")
	}
	lo, hi = xs[0].Power, xs[0].Power
	for _, s := range xs {
		lo = math.Min(lo, s.Power)
		hi = math.Max(hi, s.Power)
	}
	return lo, hi
}
