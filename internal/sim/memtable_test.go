package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"herald/internal/markov"
)

// memPins are SHA-256 digests of json.Marshal(Summary) for the
// memoryless walker at 20,000 iterations over a 1e5 h mission, seed 7,
// one worker: conventional n=4, fail-over n=4 and dual-parity n=6 from
// PaperDefaults at each lambda, HEP and bias setting. They pin the
// table walker's realizations draw for draw. They were taken on amd64;
// an architecture whose compiler fuses multiply-adds may round
// differently.
var memPins = []struct {
	pol       Policy
	lambda    float64
	hep, bias float64
	sum       string
}{
	{Conventional, 1e-06, 0, 0, "ca6ed2018fc794979c4bdde26b178dc4c92cb0f34758e6bc853eca90c407cf18"},
	{Conventional, 1e-06, 0, BiasAuto, "13f621bf15f220e855357f427c883d2a39b485e6ad5c42e51e0378150cd1ace9"},
	{Conventional, 1e-06, 0.001, 0, "5cd7e9cc46836c99d1e651268b8e947161e2f873571eace1246190cd0b120a1d"},
	{Conventional, 1e-06, 0.001, BiasAuto, "5831b53fff9f881f29141c0d183651d43ed7ed8bad6e874c6e4c3d2624a3f05c"},
	{Conventional, 1e-06, 0.01, 0, "d8d34c8ee8547c78594fb939a4d655a0cc2a33a400926a90dd0ab9505ea63c09"},
	{Conventional, 1e-06, 0.01, BiasAuto, "c87e1a5ebaf26a3fa22b5b7d8b58cb14701fce94d92f00f627ccfd1881d7e573"},
	{Conventional, 1e-06, 0.1, 0, "1a90247a0e8e98d401f04a500f6f5797b18025df10ad755172771f3046f1d667"},
	{Conventional, 1e-06, 0.1, BiasAuto, "5322413f10f36fe5fe656d3425aea810f8c766df96f0c501e77c8587e66883a9"},
	{Conventional, 1e-05, 0, 0, "528f2140f671643333b85fa46c10170642fc8eeebb00609575f015c47c0e850b"},
	{Conventional, 1e-05, 0, BiasAuto, "88f4496387e115ad913bea934bac61a27fba57b698c279c4c448997121d581e8"},
	{Conventional, 1e-05, 0.001, 0, "19ce631aa3e60b0d1b6c17f899fc1ca7820bcc44feba80370662ed6faf22348b"},
	{Conventional, 1e-05, 0.001, BiasAuto, "cc9d750d6c6d813542b7b9aa8496b80e19c2adb01319c439d84327a05aec5ee0"},
	{Conventional, 1e-05, 0.01, 0, "4fc8c82f5e04fb83bfe3721e88615afd8fd260b96b0bb495fdbd862d3e85423e"},
	{Conventional, 1e-05, 0.01, BiasAuto, "d16607be7d8b649041e22d5fc87acddcfc85d082538c9f6bdb0badbab4d40520"},
	{Conventional, 1e-05, 0.1, 0, "7aedb2346013e35bc370f849a4957c3c32a632f2ab982b09d9eca6169cf49b83"},
	{Conventional, 1e-05, 0.1, BiasAuto, "1ddf809a04989f21657843b5fcf895dbdc1f3b4ccbabfaf8f35fb8cb6ba62488"},
	{Conventional, 0.0001, 0, 0, "0f88e584eb41bbe61d4e8870edc9f789619aa43071749fc79a9d12cdc43f6d52"},
	{Conventional, 0.0001, 0, BiasAuto, "0424e8a54dbe0c421d8a909ae5956c695b9db69baa85191478bb009f7dff0443"},
	{Conventional, 0.0001, 0.001, 0, "7c3cb32b723712bde0c4fd17b7315bc636647fde3f28607a43800262ab00b9d6"},
	{Conventional, 0.0001, 0.001, BiasAuto, "77522befd4c6516df25ec022c8f6e2e05dcd63d762086f5d8fb8a9425d623ef4"},
	{Conventional, 0.0001, 0.01, 0, "96a1e38a9c72371c4ee768fc0e5e620d83e271adc35d2c42783cadcc5e873ac3"},
	{Conventional, 0.0001, 0.01, BiasAuto, "f2fac07a4b88ad4ce2898a8cc5046e5af33d4ec282c8fc9d145ebf2035faafe7"},
	{Conventional, 0.0001, 0.1, 0, "fe6aa868ec6d93876c2ca5066b9aff455671233d706c6717a64d966b7e89f5c1"},
	{Conventional, 0.0001, 0.1, BiasAuto, "dfa44c915c53ccfb1ada0d23662fca7c54bcaa14621cf5c165f6986a13ac343a"},
	{Conventional, 0.001, 0, 0, "c87c581448114508f094259e2a9354d1b1acacc8ea95483c64728a3ea50bfe19"},
	{Conventional, 0.001, 0, BiasAuto, "49778e37ee143feb84a51b28675952352cc66b44ea006c68c79625e5cb146da1"},
	{Conventional, 0.001, 0.001, 0, "411b762d4af6e8e47106486685dd532343f47ba47441bebbed8d1bbccbb1292e"},
	{Conventional, 0.001, 0.001, BiasAuto, "5f0670c97e42ee7b3722e913281ed60b998964d1025e2b2e1659ba61a4f8377c"},
	{Conventional, 0.001, 0.01, 0, "f5ea266a48ab4becac4840e663e32f1411fccc63497441722173c4d156bdd094"},
	{Conventional, 0.001, 0.01, BiasAuto, "7022c084809335d79cf49a2b21e56c595f8ab5821fc97971c685274baa0832d2"},
	{Conventional, 0.001, 0.1, 0, "a204aaacd8f0f6c7d92ad6ea1aa365ee294162c8260d0e5547eb8d43e14cc495"},
	{Conventional, 0.001, 0.1, BiasAuto, "bc09997bc3efcb042bb1a327e78db8ac13903be442e6338af0723f1e90204e6a"},
	{AutoFailover, 1e-06, 0, 0, "c656713d51e386969a84ac49fde1575c8df67d53fd8a41f5e41e700dc8c4df45"},
	{AutoFailover, 1e-06, 0, BiasAuto, "45ebc63ba2bc446c80f4f23fa984f78ea0815134f52960aabc0df6b6ebad5114"},
	{AutoFailover, 1e-06, 0.001, 0, "d3bd06c84916789b84282a6b0bc0b6287420fa222f36aa614a475fa7f044425c"},
	{AutoFailover, 1e-06, 0.001, BiasAuto, "d32cb35f2dd7fcba59288829721a57912b02e02a05034398d5c414b1317b1c21"},
	{AutoFailover, 1e-06, 0.01, 0, "39ea5ec12bab4ed46e6da5260bb443d400ffebebc13873f20befcd3ca524373b"},
	{AutoFailover, 1e-06, 0.01, BiasAuto, "df6466d6055b56c8e728a638501bc19e91c13f74a4b34a7fb9e57183823ca887"},
	{AutoFailover, 1e-06, 0.1, 0, "3b8fe00fa4b28885cf3d9b06c70d81924bfb814319f88b6f4b8af538bd490692"},
	{AutoFailover, 1e-06, 0.1, BiasAuto, "c86d295301ced7469459b6621770c635e01a26b0499bb277073696f918f62b7f"},
	{AutoFailover, 1e-05, 0, 0, "8e5be1c22be6a895ffca8ca749141466b351f789a36f1e73553f3780ada06fe9"},
	{AutoFailover, 1e-05, 0, BiasAuto, "69f57cba214a1c14ca547548e465815679f5e05bc3486101937e3373586b2751"},
	{AutoFailover, 1e-05, 0.001, 0, "131782f3bd35ef29bb2be7f4a9269d3334bfa68ce73c08c4129f99b22b854b7f"},
	{AutoFailover, 1e-05, 0.001, BiasAuto, "fb990dc8852158e217c836cd9242d33e16e9e6e012d64cd82f293ec8b28b3149"},
	{AutoFailover, 1e-05, 0.01, 0, "f0e428a3c3e5627f3ca5a60e1c647ee4946121caa040c906a0afbb72e4d068ed"},
	{AutoFailover, 1e-05, 0.01, BiasAuto, "f122cd2ce429e37fcbd52f5bbfa4dc881b31537f0cf1313c88527be3fea70d35"},
	{AutoFailover, 1e-05, 0.1, 0, "557d712f3a25f3f563d3780e4dcbda3f28938344faac94fc679740e7c40d434f"},
	{AutoFailover, 1e-05, 0.1, BiasAuto, "a68f781cccdd36ec378bcef3e479d7d74848ae1a15e14f7e0b3631f9c9ceccb7"},
	{AutoFailover, 0.0001, 0, 0, "b14d2db802c5f11969f0994fa67e66263e29362524a5c7b441cc012ada5bf41b"},
	{AutoFailover, 0.0001, 0, BiasAuto, "7cd38997dbf8ccf49d25f0382e64b5539047ebba4671054cd924d6fce57c71ad"},
	{AutoFailover, 0.0001, 0.001, 0, "1d3cd50f496f69716c92376870c29bafac41c801577ac429f4d74e48a11f9af5"},
	{AutoFailover, 0.0001, 0.001, BiasAuto, "6751416c1bdd73aa77bd2c1e834e7d0dba461abc64034d8996bada7460071b03"},
	{AutoFailover, 0.0001, 0.01, 0, "e6a509659f8bd3b12fceeaf8b3f60d640c1677e3696201659354aee90eb95590"},
	{AutoFailover, 0.0001, 0.01, BiasAuto, "0fff8b4e7fb919996bf2bd57a9927dddbe22fc611898153096226be5d8492c4c"},
	{AutoFailover, 0.0001, 0.1, 0, "ab21482dbbbfaa20ddad7823af5d05a67204484505d9a432db6a63d1cd61d711"},
	{AutoFailover, 0.0001, 0.1, BiasAuto, "1e74b24dc28040cd600c0e7ade33862e6be53540ead607f1a9e84cb5b11326e7"},
	{AutoFailover, 0.001, 0, 0, "09012824c109d0d903287d7a41a474be201fbb5c06bc196f4d133290e7485362"},
	{AutoFailover, 0.001, 0, BiasAuto, "3b943eb330d154a90cd80f3115a7476b8707afad6ee08d1006bdecaedd839549"},
	{AutoFailover, 0.001, 0.001, 0, "f1735a219d517fb37c73f28d1200aa1470bc16c306e5ef38439520221b095d25"},
	{AutoFailover, 0.001, 0.001, BiasAuto, "62db1e93bc777640967e75a743500115c5bff3e2bdc2262a212bd9dc3ab44d42"},
	{AutoFailover, 0.001, 0.01, 0, "1e1ecdb4bee81fd3052a9eb1921c7ddce5560de8d6f1150c8bc96538fc36136b"},
	{AutoFailover, 0.001, 0.01, BiasAuto, "6a5d8ffbf0cbff613d0a9ebbd6393c8eb7059702c9eb04c255342d25328db26e"},
	{AutoFailover, 0.001, 0.1, 0, "532c2dac6d38e27065fed82435f211f324acc45be1562794d3be9514a79edf09"},
	{AutoFailover, 0.001, 0.1, BiasAuto, "e51659f14e3e8aa746983dc0e9d21d53731bd28b8701e0b2fa67b4d199b3219b"},
	{DualParity, 1e-06, 0, 0, "7522f51ee835ca8128a0fedbfcdf8645ffab86db7870476ca24824fc21a75a5e"},
	{DualParity, 1e-06, 0, BiasAuto, "f6f6e52d7a648adde6fab69494502465221cf60a18c4198c2566bbbebf5a3e58"},
	{DualParity, 1e-06, 0.001, 0, "aaa85d7c8c3a105fadde18604a00c5872d3c76ffd31084e46ac247d626ca5262"},
	{DualParity, 1e-06, 0.001, BiasAuto, "0ea4ca49939dac0f1b191ec8164584335860b9086eac4538d04834b48b02a5bb"},
	{DualParity, 1e-06, 0.01, 0, "1993d770f13158b146f82f0fb9f3fb7ff26c15e06c776f2ca37d4aaf309ef677"},
	{DualParity, 1e-06, 0.01, BiasAuto, "ea06b793e5e4680c509b81fc95c7ccd1c859e31997568788af6c7283d43873b2"},
	{DualParity, 1e-06, 0.1, 0, "6fca3cc7f8f74f9cf1595462440e39bd2586091281c0b4525e44f96681b9c60c"},
	{DualParity, 1e-06, 0.1, BiasAuto, "fe4aa628e22e147ca91b2e69d6b65b2fc41645e885cd15af76cf0ca3f3663a39"},
	{DualParity, 1e-05, 0, 0, "46368747f60d9d7b68dd50f9119d84f7be2e96a4e359d8d4475df45ae2126103"},
	{DualParity, 1e-05, 0, BiasAuto, "b884510d613588ccd6ea58beaadcdd7256a8d22171003384954fc1755eef27d5"},
	{DualParity, 1e-05, 0.001, 0, "98331c8c741a7fba2f2eae45563e67639f6ff76d18a312e9b69f2f0492150f11"},
	{DualParity, 1e-05, 0.001, BiasAuto, "e4e7b5ad01d3bf2384994eb73066af1b8c8cf541718619b54e8b8c484ea4a340"},
	{DualParity, 1e-05, 0.01, 0, "919a8a061ad76036632cfa466cb9df953f7a397ba4095d2a9a10e298aaa549fd"},
	{DualParity, 1e-05, 0.01, BiasAuto, "a76bee588f87929168dd7ec28d5734eb08110e895a9828aaa63bb02eb3a735e3"},
	{DualParity, 1e-05, 0.1, 0, "926393590d9fab0e621bc486e3fc4ce15c38caf7f468c607d298f84273c809ec"},
	{DualParity, 1e-05, 0.1, BiasAuto, "11508889040657c4f15994313a0e232a78e2aae3fe86858122753886015d4cfa"},
	{DualParity, 0.0001, 0, 0, "3a43251be680e8ce4642777d706339b3dc75aa08233b7d51fe6aa85d37b0d31c"},
	{DualParity, 0.0001, 0, BiasAuto, "913383c47ed96175d1642cdc127b8746527da393bd2f962e0ccb07b16e9e8503"},
	{DualParity, 0.0001, 0.001, 0, "3580dbf37237cfad7f6942e036b43ecfd5e4a4dbd156d68b98cfea41b2e1091b"},
	{DualParity, 0.0001, 0.001, BiasAuto, "1adedcd7777c25bb0f49b4262b666a59fdcfa90c972d861abd01ce98888866a2"},
	{DualParity, 0.0001, 0.01, 0, "a14ebf8165d5abbccce4dbd5f9a38ddbf70524039c592d3235ae72d61e68f53a"},
	{DualParity, 0.0001, 0.01, BiasAuto, "6e77676542e8a86167194beadbb89a3e50852f4445667e397ba98a6288be44ce"},
	{DualParity, 0.0001, 0.1, 0, "c11c632800229157c11113a964958aa23ab539f66ed82bf9ac12c5a50225ad13"},
	{DualParity, 0.0001, 0.1, BiasAuto, "5ba9cb1daff1394d5d9acf4268960bb83ef0dd1e62b98c4580966cd5b2f96000"},
	{DualParity, 0.001, 0, 0, "88f5d876def06e318b73216586a75a99a45ebba53aaf3537fe05a372f3fb4fcd"},
	{DualParity, 0.001, 0, BiasAuto, "8c8bdab19df56f106845bd7705a90ad8be70c35ec421726a8b52430a843e752e"},
	{DualParity, 0.001, 0.001, 0, "974403a39aad2bcc334a40f981a36d9afd175e2ff0f6a3ea5ddf5114a767b55b"},
	{DualParity, 0.001, 0.001, BiasAuto, "226bcaab1248e96ee343afb8cd9e09338dcf4a271a53cd7b0b115d5c8a55fbfe"},
	{DualParity, 0.001, 0.01, 0, "e0ec08b29544a6379a32c0fea532185ca1333faf31fcefb99c79354aaa614e98"},
	{DualParity, 0.001, 0.01, BiasAuto, "0c86ba5d91ed8964a4a9af513fae0c39c5af6e045b5eb456e7b1c4cbbe6d3e9f"},
	{DualParity, 0.001, 0.1, 0, "ed8c70c3794c3aa4e98199e537396156ee20426a686cf774ec1cebbd947fb35e"},
	{DualParity, 0.001, 0.1, BiasAuto, "0d36dbce14684a560115182a24999020f736e6962a231da32cc8eca6669f4037"},
}

func TestMemTableRealizationPins(t *testing.T) {
	disks := map[Policy]int{Conventional: 4, AutoFailover: 4, DualParity: 6}
	for _, c := range memPins {
		c := c
		name := fmt.Sprintf("%v/lambda=%g/hep=%g/bias=%g", c.pol, c.lambda, c.hep, c.bias)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := PaperDefaults(disks[c.pol], c.lambda, c.hep)
			p.Policy = c.pol
			s, err := Run(p, Options{Iterations: 20000, MissionTime: 1e5, Seed: 7, Workers: 1, Bias: c.bias})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != c.sum {
				t.Errorf("realization moved: sha256 %x, pinned %s\n%s", sum, c.sum, b)
			}
		})
	}
}

// flattenTable turns p's memoryless table into the CTMC the walker
// samples: each exit's HEP trial folds back into a (1-hep)/hep split
// of its rate, tape holds become DL and DUR (post-undo resync) states
// ahead of the exit's next state, and DU, DL and DUR states carry
// reward 1 (downtime).
func flattenTable(t *testing.T, p ArrayParams) (*markov.CTMC, []float64) {
	t.Helper()
	m, ok := memorylessRates(&p)
	if !ok {
		t.Fatal("configuration is not memoryless")
	}
	tb := memTables[p.Policy](&p, m)
	tb.finish(m.lambda, 1, new([maxCtrs]skipCounter))
	b := markov.NewBuilder()
	down := map[string]bool{}
	name := func(s int) string { return fmt.Sprint("s", s) }
	for s, ms := range tb.states {
		b.State(name(s))
		down[name(s)] = ms.du
	}
	exit := func(from, to int, tape tapeHold, rate float64) {
		if from == to && tape == noTape {
			return // a failed undo: no transition
		}
		dest := name(to)
		if tape != noTape {
			hold := "DL>" + dest
			if tape == tapeResync {
				hold = "DUR>" + dest
			}
			if !down[hold] { // one restore transition per hold state
				down[hold] = true
				b.At(hold, dest, m.muDDF)
			}
			dest = hold
		}
		b.At(name(from), dest, rate)
	}
	for si, ms := range tb.states {
		for _, o := range ms.outs {
			rate := o.rate
			if o.fail > 0 {
				rate = o.fail * m.lambda
			}
			if o.hep {
				exit(si, o.errNext, noTape, p.HEP*rate)
				rate *= 1 - p.HEP
			}
			exit(si, o.next, o.tape, rate)
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reward := make([]float64, c.N())
	for i := range reward {
		if down[c.StateName(i)] {
			reward[i] = 1
		}
	}
	return c, reward
}

// TestMemTableMatchesAccumulatedReward checks the interpreter against
// the exact mean of the chain it samples: the expected mission
// availability 1 - E[downtime]/mission of each policy's flattened
// table, solved by uniformization (markov.AccumulatedReward). Unlike
// the closed-form tests there is no model-approximation slack, so the
// walker's estimate must sit within 4 of its 99% half-widths.
func TestMemTableMatchesAccumulatedReward(t *testing.T) {
	const mission = 1e4
	for _, pol := range policies {
		for _, hep := range []float64{0, 0.01} {
			for _, resync := range []bool{true, false} {
				n := 4
				if pol == DualParity {
					n = 6
				}
				p := PaperDefaults(n, 1e-3, hep)
				p.Policy, p.ResyncAfterUndo = pol, resync
				c, reward := flattenTable(t, p)
				pi0 := make([]float64, c.N())
				pi0[0] = 1 // state 0 is OP
				down, err := c.AccumulatedReward(pi0, mission, reward)
				if err != nil {
					t.Fatal(err)
				}
				want := 1 - down/mission
				s, err := Run(p, Options{Iterations: 20000, MissionTime: mission, Seed: 3, Kernel: KernelMemoryless})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%v %g %v: %.3f hw", pol, hep, resync, (s.Availability-want)/s.HalfWidth)
				if d := math.Abs(s.Availability - want); !(d <= 4*s.HalfWidth) {
					t.Errorf("%v hep=%g resync=%v: walker %.9f ± %.2g, chain %.9f (off by %.1f half-widths)",
						pol, hep, resync, s.Availability, s.HalfWidth, want, d/s.HalfWidth)
				}
			}
		}
	}
}
