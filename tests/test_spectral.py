import io
import random

import numpy as np
import pytest

from conftest import rand_elem, sparse_element
from rookfft.algebra import (
    GROUPOID,
    SEMIGROUP,
    AlgebraElement,
    BasisMismatch,
    inner2,
    random_element,
    to_groupoid,
)
from rookfft.core import ParseError, PartialPermutation, enumerate_rn
from rookfft.rook_reps import labels
from rookfft.spectral import (
    Dataset,
    analyze,
    _ingest_lines,
    ingest,
    isotypic_project,
    report_to_csv,
    report_to_json_dict,
    spectrum,
    to_function,
)
from rookfft.transforms import FourierCoefficients, fourier_invert, stein_fft

PP = PartialPermutation


def pp(n, flat):
    return PP.from_flat(n, flat)


def ingest_text(text, n=None):
    return _ingest_lines(io.StringIO(text), n)


def projection_energy(f, shape):
    """⟨p,p⟩₂ by the projection route: transform, keep one block, invert."""
    g = f if f.basis == GROUPOID else to_groupoid(f)
    F = stein_fft(g)
    kept = {sh: (M if sh == shape else np.zeros_like(M)) for sh, M in F.blocks.items()}
    p = fourier_invert(FourierCoefficients(f.n, kept))
    return inner2(p, p).real


class TestIngest:
    def test_single_line(self):
        d = ingest_text("ballot,count\n2->1;4->4,12\n", n=4)
        assert d.n == 4
        assert d.records == [(pp(4, "2->1;4->4"), 12.0)]

    def test_blank_ballot_is_zero_map(self):
        d = ingest_text("ballot,count\n,5\n", n=2)
        assert d.records == [(PP.zero(2), 5.0)]

    def test_non_injective_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            ingest_text("ballot,count\n1->1,1\n2->1;3->1,1\n", n=3)

    def test_image_point_zero_reports_line(self):
        with pytest.raises(ParseError, match="line 3: image point 0"):
            ingest_text("ballot,count\n1->1,1\n1->0;1->2,1\n", n=2)

    def test_negative_count_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            ingest_text("ballot,count\n1->1,-3\n", n=2)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            ingest_text("a,b\n1->1,3\n")

    @pytest.mark.parametrize("count", ["nan", "inf", "-inf", " NaN"])
    def test_non_finite_count_reports_line(self, count):
        with pytest.raises(ParseError, match="line 3: non-finite count"):
            ingest_text(f"ballot,count\n1->1,2\n2->2,{count}\n", n=2)

    def test_bad_count(self):
        with pytest.raises(ParseError, match="line 2"):
            ingest_text("ballot,count\n1->1,x\n", n=2)

    def test_duplicates_merge(self):
        d = ingest_text("ballot,count\n1->2,2\n1->2,3\n", n=2)
        assert d.records == [(pp(2, "1->2"), 5.0)]

    def test_ambient_size_inferred(self):
        d = ingest_text("ballot,count\n2->5,1\n")
        assert d.n == 5

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_text("ballot,count\n1->1,2\n", encoding="utf-8")
        assert ingest(path, 2).records == [(pp(2, "1->1"), 2.0)]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "ballots.csv"
        path.write_bytes(b"\xef\xbb\xbfballot,count\n1->1,2\n")
        assert ingest(path, 2).records == [(pp(2, "1->1"), 2.0)]


class TestCountVector:
    def test_counts_in_enumeration_order_merged_in_file_order(self):
        d = ingest_text("ballot,count\n2->1,0.1\n,4\n2->1,0.2\n1->2,1e-20\n2->1,0.3\n", n=2)
        want = np.zeros(len(enumerate_rn(2)))
        for s, c in [(pp(2, "2->1"), 0.1), (PP.zero(2), 4.0), (pp(2, "2->1"), 0.2),
                     (pp(2, "1->2"), 1e-20), (pp(2, "2->1"), 0.3)]:
            want[enumerate_rn(2).index(s)] += c
        assert d.counts.dtype == float and not d.counts.flags.writeable
        assert d.counts.tobytes() == want.tobytes()
        assert d.records == [(s, c) for s, c in zip(enumerate_rn(2), want.tolist()) if c]

    def test_records_leave_out_ballots_counted_zero_times(self):
        d = ingest_text("ballot,count\n1->1,0\n2->2,3\n", n=2)
        assert d.records == [(pp(2, "2->2"), 3.0)]
        assert Dataset(2, [(pp(2, "1->1"), 0.0), (pp(2, "2->2"), 3.0)]).records == d.records

    def test_constructor_refuses_a_complex_count(self):
        with pytest.raises(TypeError):
            Dataset(2, [(pp(2, "1->1"), 2 + 1j)])

    def test_records_and_constructor_agree(self):
        d = ingest_text("ballot,count\n1->2;2->1,2\n1->1,5\n1->2;2->1,1\n", n=2)
        again = Dataset(d.n, d.records)
        assert again.counts.tobytes() == d.counts.tobytes()
        assert not again.counts.flags.writeable

    def test_no_ballot_is_decoded_on_the_analysis_path(self, monkeypatch):
        def decode(*_):
            raise AssertionError("a ballot was decoded")

        monkeypatch.setattr("rookfft.spectral.elements_at", decode)
        d = ingest_text("ballot,count\n2->1;3->3,2\n1->2,1\n", n=3)
        for association in (SEMIGROUP, GROUPOID):
            assert analyze(d, association).parseval_residual <= 1e-9


class TestToFunction:
    def test_single_record_each_association(self):
        d = Dataset(2, [(pp(2, "1->2"), 3.0)])
        for assoc in (SEMIGROUP, GROUPOID):
            f = to_function(d, assoc)
            assert f.basis == assoc
            assert f[pp(2, "1->2")] == 3.0
            assert f.support() == 1

    def test_merged_duplicates_sum(self):
        d = Dataset(2, [(pp(2, "1->2"), 3.0), (pp(2, "1->2"), 4.0)])
        assert to_function(d, GROUPOID)[pp(2, "1->2")] == 7.0

    def test_unknown_association(self):
        with pytest.raises(ValueError):
            to_function(Dataset(2, []), "fourier")


class TestProjection:
    def test_zero_map_point_mass(self):
        f = AlgebraElement.delta(2, PP.zero(2), GROUPOID)
        assert isotypic_project(f, ()).allclose(f, 1e-9)
        for sh in labels(2):
            if sh != ():
                assert isotypic_project(f, sh).support() == 0

    @pytest.mark.parametrize("n", range(1, 4))
    def test_projections_sum_to_groupoid_image(self, n):
        f = rand_elem(n, SEMIGROUP, 5 + n)
        total = None
        for sh in labels(n):
            p = isotypic_project(f, sh)
            total = p if total is None else total + p
        assert total.allclose(to_groupoid(f), 1e-9)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_idempotence(self, n):
        f = rand_elem(n, GROUPOID, 15 + n)
        for sh in labels(n):
            p = isotypic_project(f, sh)
            assert isotypic_project(p, sh).allclose(p, 1e-9)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_distinct_projections_orthogonal(self, n):
        f = rand_elem(n, GROUPOID, 25 + n)
        projs = [isotypic_project(f, sh) for sh in labels(n)]
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                assert abs(inner2(projs[i], projs[j])) < 1e-8

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            isotypic_project(rand_elem(2, GROUPOID, 1), (3,))

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("basis", [SEMIGROUP, GROUPOID])
    def test_rank_inversion_equals_whole_inversion(self, n, basis):
        # inverting the label's rank alone gives what inverting the whole
        # block set, every other block zero, gives
        f = random_element(n, basis, random.Random(60 + n))
        F = stein_fft(f if basis == GROUPOID else to_groupoid(f))
        for sh in labels(n):
            kept = {s: (M if s == sh else np.zeros_like(M)) for s, M in F.blocks.items()}
            whole = fourier_invert(FourierCoefficients(n, kept))
            assert np.array_equal(isotypic_project(f, sh).values, whole.values)


class TestSpectrum:
    def test_pure_rank_zero_dataset(self):
        rep = spectrum(AlgebraElement.delta(2, PP.zero(2), GROUPOID))
        assert rep.energies[()] == pytest.approx(1.0)
        assert all(e == pytest.approx(0.0) for sh, e in rep.energies.items() if sh != ())

    def test_full_rankings_put_no_energy_below_top_rank(self):
        n = 3
        coeffs = {s: 1.0 for s in enumerate_rn(n) if s.rank == n}
        rep = spectrum(AlgebraElement(n, GROUPOID, coeffs))
        for sh, e in rep.energies.items():
            if sum(sh) < n:
                assert e == pytest.approx(0.0, abs=1e-12)
        assert rep.total > 0

    def test_energy_additivity(self):
        f = rand_elem(2, GROUPOID, 33)
        rep = spectrum(f)
        parseval = inner2(f, f).real
        assert rep.total == pytest.approx(parseval, rel=1e-6)
        assert all(e >= -1e-12 for e in rep.energies.values())

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("basis", [GROUPOID, SEMIGROUP])
    def test_plancherel_matches_projection_route(self, n, basis):
        f = rand_elem(n, basis, 60 + n, support="sparse")
        rep = spectrum(f)
        for sh in labels(n):
            want = projection_energy(f, sh)
            assert rep.energies[sh] == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_parseval_residual_and_nonnegativity_at_n6(self):
        f = random_element(6, SEMIGROUP, random.Random(6), "sparse")
        g = to_groupoid(f)
        norm = inner2(g, g).real
        rep = spectrum(f)
        assert rep.parseval_residual <= 1e-9 * norm
        assert rep.total == sum(rep.energies.values())
        assert all(e >= 0.0 for e in rep.energies.values())
        assert set(rep.energies) == set(labels(6))

    def test_parseval_residual_at_n7(self):
        g = sparse_element(7, 2000, seed=77)
        rep = spectrum(g)
        assert rep.parseval_residual <= 1e-9 * inner2(g, g).real
        assert set(rep.energies) == set(labels(7))

    def test_association_models_differ_below_full_rank(self):
        d = Dataset(2, [(pp(2, "1->1"), 1.0)])
        semi = analyze(d, SEMIGROUP).energies
        grp = analyze(d, GROUPOID).energies
        assert any(abs(semi[sh] - grp[sh]) > 1e-9 for sh in semi)

    def test_association_override_must_match(self):
        f = rand_elem(2, GROUPOID, 2)
        assert spectrum(f, GROUPOID).association == GROUPOID
        with pytest.raises(BasisMismatch):
            spectrum(f, SEMIGROUP)


class TestReports:
    def test_json_layout(self):
        rep = analyze(Dataset(2, [(PP.zero(2), 2.0)]), GROUPOID)
        data = report_to_json_dict(rep)
        assert data["n"] == 2 and data["association"] == GROUPOID
        assert data["total"] == pytest.approx(4.0)
        assert 0.0 <= data["parseval_residual"] <= 1e-12
        by_label = {tuple(e["lambda"]): e for e in data["labels"]}
        assert by_label[()]["energy"] == pytest.approx(4.0)
        assert by_label[()]["fraction"] == pytest.approx(1.0)

    def test_csv_layout(self):
        rep = analyze(Dataset(2, [(PP.zero(2), 2.0)]), GROUPOID)
        lines = report_to_csv(rep).splitlines()
        assert lines[0] == "lambda,k,energy,fraction"
        assert len(lines) == 1 + len(labels(2))
