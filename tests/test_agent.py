"""Agent loop: action parsing, executors, golden scripted episodes, and the
call-budget ceiling."""

import pytest

from kbloop.agent import (
    ActionParseError,
    AgentConfig,
    TemplateChat,
    cot_fallback,
    exec_complete,
    exec_finish,
    exec_search,
    parse_action,
    run_episode,
)
from kbloop.completer import RemoteCompleter
from kbloop.kb import Triple, UnknownEntityError
from kbloop.llm import ScriptedBackend
from kbloop.paths import parse_reasoning_paths
from kbloop.prompts import TEMPLATE_NAMES

from conftest import CannedCompleter, WOODROW_GOLD, canonical_json, make_kb


class TestParseAction:
    def test_complete(self):
        action = parse_action("Complete[Woodrow Wilson | educated at]")
        assert action.kind == "complete"
        assert action.payload == ("Woodrow Wilson", "educated at")

    def test_finish_unknown(self):
        action = parse_action("Finish[unknown]")
        assert action.kind == "finish"
        assert action.payload == ("unknown",)

    def test_case_insensitive_keyword(self):
        assert parse_action("search[A | B]").payload == ("A", "B")

    def test_generate_keeps_whole_subquestion(self):
        action = parse_action("Generate[who are William Shakespeare's father?]")
        assert action.payload == ("who are William Shakespeare's father?",)

    def test_unknown_keyword(self):
        with pytest.raises(ActionParseError):
            parse_action("Think[hard]")

    def test_malformed_brackets(self):
        with pytest.raises(ActionParseError):
            parse_action("Search Woodrow Wilson")

    def test_complete_needs_two_parts(self):
        with pytest.raises(ActionParseError):
            parse_action("Complete[only one]")

    @pytest.mark.parametrize("text", ["Search[]", "Finish[ | ]"])
    def test_empty_payload(self, text):
        with pytest.raises(ActionParseError, match="needs a payload"):
            parse_action(text)


class TestExecFinish:
    def test_filters_against_gold(self):
        predicted = [
            "Davidson College", "University of Virginia",
            "Princeton University", "Johns Hopkins University",
        ]
        obs = exec_finish(predicted, WOODROW_GOLD)
        assert obs.verified_answers == [
            "Davidson College", "Princeton University", "Johns Hopkins University"
        ]

    def test_exact_match_passes_through(self):
        obs = exec_finish(["a", "b"], ["b", "a"])
        assert obs.verified_answers == ["a", "b"]

    def test_unknown_verifies_empty(self):
        assert exec_finish(["unknown"], ["a"]).verified_answers == []

    def test_infer_mode_passthrough(self):
        assert exec_finish(["x", "y"]).verified_answers == ["x", "y"]

    def test_case_insensitive_match(self):
        assert exec_finish(["john shakespeare"], ["John Shakespeare"]).verified_answers == [
            "john shakespeare"
        ]


def woodrow_transcript():
    return ScriptedBackend(
        [
            (
                "where did woodrow wilson go to school?",
                "Thought 1: The task requires identifying educational institutions attended by "
                "Woodrow Wilson. Based on the question, I will focus on gathering educational "
                "institutions linked to him.\n"
                "Action 1: Search[Woodrow Wilson]",
            ),
            (
                "Entity Name: Woodrow Wilson",
                "Answers: educated at, employer",
            ),
            (
                "Observation 1",
                "Thought 2: While Davidson College and the University of Virginia are identified, "
                "I suspect there are more institutions. I will use the \"Complete\" action with "
                "\"Woodrow Wilson\" and the relation \"educated at\" to find additional schools.\n"
                "Action 2: Complete[Woodrow Wilson | educated at]",
            ),
            (
                "Observation 2",
                "Thought 3: The result of Complete Action shows that Princeton University is also "
                "the school attended by Woodrow Wilson. I need to conduct further analysis to "
                "determine if there are other possible institutions.\n"
                "Action 3: Generate[which additional educational institutions are linked to "
                "Woodrow Wilson?]",
            ),
            (
                "which additional educational institutions",
                'Generated Triples: """\n'
                "1. Woodrow Wilson, educated at, Johns Hopkins University\n"
                '"""',
            ),
            (
                "Schemas",
                'New Triples: """\n'
                "1. Woodrow Wilson, educated at, Johns Hopkins University\n"
                '"""',
            ),
            (
                "Observation 3",
                "Thought 4: Firstly, I have gathered four educational institutions associated with "
                "Woodrow Wilson: Davidson College, University of Virginia, Princeton University, "
                "and Johns Hopkins University. Secondly, I compare them completely with the "
                "reference answers. The University of Virginia School of Law is missing.\n"
                "Action 4: Finish[Davidson College | University of Virginia | Princeton University "
                "| Johns Hopkins University]",
            ),
        ]
    )


def woodrow_completer():
    return CannedCompleter({("Q34296", "P69"): [("Q21578", 0.9)]})


def run_woodrow(woodrow_kb):
    return run_episode(
        "where did woodrow wilson go to school?",
        ["Q34296"],
        woodrow_kb,
        woodrow_completer(),
        woodrow_transcript(),
        gold_answers=WOODROW_GOLD,
    )


class TestWoodrowEpisode:
    def test_action_sequence(self, woodrow_kb):
        trajectory = run_woodrow(woodrow_kb)
        assert [s.action.kind for s in trajectory.steps] == [
            "search", "complete", "generate", "finish"
        ]
        assert trajectory.stop_reason == "finish"

    def test_search_observation(self, woodrow_kb):
        trajectory = run_woodrow(woodrow_kb)
        triples = {(t.head, t.relation, t.tail) for t in trajectory.steps[0].observation.triples}
        assert triples == {
            ("Woodrow Wilson", "educated at", "Davidson College"),
            ("Woodrow Wilson", "educated at", "University of Virginia"),
            ("Woodrow Wilson", "employer", "Bryn Mawr College"),
        }

    def test_complete_observation_from_completer(self, woodrow_kb):
        trajectory = run_woodrow(woodrow_kb)
        obs = trajectory.steps[1].observation
        assert [(t.head, t.relation, t.tail) for t in obs.triples] == [
            ("Woodrow Wilson", "educated at", "Princeton University")
        ]

    def test_generated_triple_linked(self, woodrow_kb):
        trajectory = run_woodrow(woodrow_kb)
        obs = trajectory.steps[2].observation
        assert [(t.head, t.relation, t.tail) for t in obs.triples] == [
            ("Woodrow Wilson", "educated at", "Johns Hopkins University")
        ]
        assert obs.triples[0].relation_id == "P69"

    def test_verified_answer_filtering(self, woodrow_kb):
        trajectory = run_woodrow(woodrow_kb)
        assert trajectory.verified_answers == [
            "Davidson College", "Princeton University", "Johns Hopkins University"
        ]
        assert len(trajectory.predicted_answers) == 4
        assert "University of Virginia" not in trajectory.verified_answers

    def test_call_count(self, woodrow_kb):
        trajectory = run_woodrow(woodrow_kb)
        assert trajectory.llm_call_count == 7
        assert trajectory.llm_call_count <= AgentConfig().call_budget

    def test_byte_identical_replay(self, woodrow_kb):
        first = canonical_json(run_woodrow(woodrow_kb))
        second = canonical_json(run_woodrow(woodrow_kb))
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_template_audit(self, woodrow_kb):
        trajectory = run_woodrow(woodrow_kb)
        assert trajectory.template_calls
        assert all(name in TEMPLATE_NAMES for name in trajectory.template_calls)
        assert trajectory.template_calls.count("agent_train") == 4


def shakespeare_transcript():
    return ScriptedBackend(
        [
            (
                "Which one of Shakespeare's parents worked as a business person?",
                "Thought 1: I need to find Shakespeare's parents firstly.\n"
                "Action 1: Search[William Shakespeare]",
            ),
            ("Entity Name: William Shakespeare", "Answers: father"),
            (
                "Observation 1",
                "Thought 2: The search results did not provide specific information about William "
                "Shakespeare's parents or their occupations. Therefore, I need to identify "
                "Shakespeare's father.\n"
                "Action 2: Generate[who are William Shakespeare's father?]",
            ),
            (
                "who are William Shakespeare's father?",
                'Generated Triples: """\n1. William Shakespeare, father, John Shakespeare\n"""',
            ),
            ("Schemas", 'New Triples: """\n1. William Shakespeare, father, John Shakespeare\n"""'),
            (
                "Observation 2",
                "Thought 3: I could find the father of William Shakespeare is John Shakespeare. "
                "I need to identify Shakespeare's mother then.\n"
                "Action 3: Generate[who are William Shakespeare's mother?]",
            ),
            (
                "who are William Shakespeare's mother?",
                'Generated Triples: """\n1. William Shakespeare, mother, Mary Shakespeare\n"""',
            ),
            ("Schemas", 'New Triples: """\n1. William Shakespeare, mother, Mary Shakespeare\n"""'),
            (
                "Observation 3",
                "Thought 4: According to the generate results, I can find the father of William "
                "Shakespeare is John Shakespeare and the mother is Mary Shakespeare. So next I "
                "will search for some information about their occupations.\n"
                "Action 4: Search[John Shakespeare | Mary Shakespeare]",
            ),
            ("Entity Name: John Shakespeare", "Answers: child"),
            ("Entity Name: Mary Shakespeare", "Answers: spouse, occupation"),
            (
                "Observation 4",
                "Thought 5: I find the occupation of Mary Shakespeare is writer, but the search "
                "results did not provide specific information about John Shakespeare's "
                "occupations. Therefore, I need to identify his business-related activities.\n"
                "Action 5: Complete[John Shakespeare | occupation]",
            ),
            (
                "Observation 5",
                "Thought 6: John Shakespeare is identified as William Shakespeare's father with "
                "occupations as a glove maker and a local government official. This connects him "
                "to the business realm. Therefore, I can summarize the answers.\n"
                "Action 6: Finish[John Shakespeare]",
            ),
        ]
    )


class TestShakespeareInference:
    def run(self, shakespeare_kb):
        completer = CannedCompleter(
            {("Q2566101", "P106"): [("Q215114", 0.8), ("Q82955", 0.6)]}
        )
        return run_episode(
            "Which one of Shakespeare's parents worked as a business person?",
            ["Q692"],
            shakespeare_kb,
            completer,
            shakespeare_transcript(),
        )

    def test_six_steps_ending_finish(self, shakespeare_kb):
        trajectory = self.run(shakespeare_kb)
        assert len(trajectory.steps) == 6
        assert trajectory.final_answers == ["John Shakespeare"]
        assert trajectory.stop_reason == "finish"
        assert trajectory.mode == "infer"

    def test_multi_entity_search(self, shakespeare_kb):
        trajectory = self.run(shakespeare_kb)
        obs = trajectory.steps[3].observation
        assert {(t.head, t.relation, t.tail) for t in obs.triples} == {
            ("John Shakespeare", "child", "Joan Shakespeare"),
            ("Mary Shakespeare", "spouse", "John Shakespeare"),
            ("Mary Shakespeare", "occupation", "writer"),
        }

    def test_complete_returns_both_occupations(self, shakespeare_kb):
        trajectory = self.run(shakespeare_kb)
        obs = trajectory.steps[4].observation
        assert [(t.head, t.relation, t.tail) for t in obs.triples] == [
            ("John Shakespeare", "occupation", "merchant"),
            ("John Shakespeare", "occupation", "politician"),
        ]

    def test_budget_respected(self, shakespeare_kb):
        trajectory = self.run(shakespeare_kb)
        assert trajectory.llm_call_count == 13
        assert trajectory.llm_call_count <= 20


class TestLoopBounds:
    def test_never_finishing_script_exhausts_steps(self, woodrow_kb):
        steps = []
        for i in range(1, 11):
            steps.append(("", f"Thought {i}: still looking.\nAction {i}: Search[Nobody Here]"))
        trajectory = run_episode(
            "q?", ["Q34296"], woodrow_kb, woodrow_completer(), ScriptedBackend(steps),
            gold_answers=["x"],
        )
        assert len(trajectory.steps) == 10
        assert trajectory.final_answers == ["unknown"]
        assert trajectory.stop_reason == "max_steps"

    def test_budget_ceiling_stops_generate_heavy_episode(self, woodrow_kb):
        steps = []
        for i in range(1, 8):
            steps.append(("", f"Thought {i}: more.\nAction {i}: Generate[what links Woodrow Wilson?]"))
            steps.append(("", 'Generated Triples: """\n1. A, educated at, B\n"""'))
            steps.append(("", 'New Triples: """\n1. A, educated at, B\n"""'))
        trajectory = run_episode(
            "q?", ["Q34296"], woodrow_kb, woodrow_completer(), ScriptedBackend(steps),
            gold_answers=["x"],
        )
        assert trajectory.llm_call_count == 20
        assert trajectory.stop_reason == "budget"
        assert trajectory.final_answers == ["unknown"]

    def test_malformed_action_reprompted_once(self, woodrow_kb):
        backend = ScriptedBackend(
            [
                ("", "Go west!"),
                ("format error", "Thought 1: fine.\nAction 1: Finish[unknown]"),
            ]
        )
        trajectory = run_episode(
            "q?", ["Q34296"], woodrow_kb, woodrow_completer(), backend, gold_answers=["x"]
        )
        assert trajectory.stop_reason == "finish"
        assert trajectory.llm_call_count == 2

    def test_double_malformed_aborts_step_and_continues(self, woodrow_kb):
        backend = ScriptedBackend(
            [
                ("", "nonsense"),
                ("", "still nonsense"),
                ("", "Thought 2: ok.\nAction 2: Finish[unknown]"),
            ]
        )
        trajectory = run_episode(
            "q?", ["Q34296"], woodrow_kb, woodrow_completer(), backend, gold_answers=["x"]
        )
        assert trajectory.stop_reason == "finish"
        assert len(trajectory.steps) == 1
        assert any("aborted" in note for note in trajectory.notes)


class TestSearchEdgeCases:
    def test_unknown_surface_noted_and_loop_continues(self, woodrow_kb):
        backend = ScriptedBackend(
            [
                ("", "Thought 1: look.\nAction 1: Search[Nobody Here]"),
                ("", "Thought 2: give up.\nAction 2: Finish[unknown]"),
            ]
        )
        trajectory = run_episode(
            "q?", ["Q34296"], woodrow_kb, woodrow_completer(), backend, gold_answers=["x"]
        )
        obs = trajectory.steps[0].observation
        assert obs.triples == []
        assert "entity not found: Nobody Here" in obs.notes

    def test_ambiguous_surface_disambiguated_by_model(self):
        kb = make_kb(
            [("Q30", "r", "x"), ("Q99", "r", "y")],
            entities={
                "Q30": ("America", "country in North America"),
                "Q99": ("America", "a song"),
                "x": ("X", ""), "y": ("Y", ""),
            },
            relations={"r": ("related to", "", "")},
        )
        backend = ScriptedBackend(
            [
                ("", "Thought 1: who leads America?\nAction 1: Search[America]"),
                ("Candidate Entities", "Answer: Q30"),
                ("Entity Name: America", "Answers: related to"),
                ("", "Thought 2: done.\nAction 2: Finish[unknown]"),
            ]
        )
        trajectory = run_episode(
            "q?", ["Q30"], kb, CannedCompleter({}), backend, gold_answers=["x"]
        )
        triples = trajectory.steps[0].observation.triples
        assert [(t.head, t.tail) for t in triples] == [("America", "X")]

    def test_reply_naming_no_candidate_defaults_to_the_smallest_id(self):
        kb = make_kb(
            [("Q30", "r", "x"), ("Q99", "r", "y")],
            entities={"Q30": ("America", ""), "Q99": ("America", ""), "x": ("X", ""), "y": ("Y", "")},
            relations={"r": ("related to", "", "")},
        )
        chat = TemplateChat(ScriptedBackend(
            [("Candidate Entities", "Answer: neither"), ("Entity Name: America", "Answers: related to")]
        ), max_calls=2)
        obs = exec_search(["America"], "t", kb, chat, AgentConfig())
        assert [(t.head, t.tail) for t in obs.triples] == [("America", "X")]
        assert obs.notes == ["ambiguous entity America: defaulted to Q30"]

    @pytest.mark.parametrize("config, relations, n_triples", [
        (AgentConfig(relations_per_search=2), ["r1", "r1", "r2", "r2"], 4),
        (AgentConfig(max_search_triples=3), ["r1", "r1", "r2"], 3),
    ])
    def test_observation_capped_by_relations_and_triples(self, config, relations, n_triples):
        kb = make_kb([("h", r, f"{r}{i}") for r in ("r1", "r2", "r3") for i in range(2)],
                     entities={"h": ("Hub", "")})
        chat = TemplateChat(ScriptedBackend([("Entity Name: Hub", "Answers: r1, r2, r3")]),
                            max_calls=1)
        obs = exec_search(["Hub"], "t", kb, chat, config)
        assert [t.relation for t in obs.triples] == relations
        assert len(obs.triples) == n_triples


    @pytest.mark.parametrize("incident, followed", [(["r2"], "r2"), (["r2", "r1"], "r1")],
                             ids=["only_r2_incident", "both_incident"])
    def test_a_shared_relation_label_follows_the_smallest_incident_id(self, incident, followed):
        kb = make_kb([("h", r, f"t{r}") for r in incident] + [("o", "r1", "x")],
                     entities={"h": ("Hub", "")},
                     relations={"r1": ("born in", "", ""), "r2": ("born in", "", "")})
        chat = TemplateChat(ScriptedBackend([("Entity Name: Hub", "Answers: born in")]), max_calls=1)
        obs = exec_search(["Hub"], "t", kb, chat, AgentConfig())
        assert [(t.relation_id, t.tail) for t in obs.triples] == [(followed, f"t{followed}")]


class TestGenerateEdgeCases:
    def korea_kb(self):
        return make_kb(
            [("Q423", "P35", "Q14863")],
            entities={
                "Q423": ("North Korea", "country in East Asia"),
                "Q14863": ("Kim Jong-un", "supreme leader of North Korea"),
                "Q312509": ("Pak Pong-ju", "North Korean politician"),
            },
            relations={
                "P35": ("head of state", "official with the highest formal authority",
                        "[Location], head of state, [Human]"),
                "P6": ("head of government", "head of the executive power",
                       "[Location], head of government, [Human]"),
            },
        )

    def test_inverted_triple_corrected_by_modify_pass(self):
        kb = self.korea_kb()
        backend = ScriptedBackend(
            [
                ("", "Thought 1: who rules.\nAction 1: Generate[who is ruling north korea now?]"),
                (
                    "Generated Triples",
                    'Generated Triples: """\n1. Pak Pong-ju, head of government, North Korea\n"""',
                ),
                (
                    "head of government: [Location], head of government, [Human]",
                    'New Triples: """\n1. North Korea, head of government, Pak Pong-ju\n"""',
                ),
                ("", "Thought 2: done.\nAction 2: Finish[unknown]"),
            ]
        )
        trajectory = run_episode(
            "who is ruling north korea now?", ["Q423"], kb, CannedCompleter({}), backend,
            gold_answers=["Kim Jong-un"],
        )
        obs = trajectory.steps[0].observation
        assert [(t.head, t.relation, t.tail) for t in obs.triples] == [
            ("North Korea", "head of government", "Pak Pong-ju")
        ]
        assert obs.triples[0].relation_id == "P6"

    def test_training_mode_prompt_carries_hint(self, woodrow_kb):
        backend = ScriptedBackend(
            [
                ("", "Thought 1: go.\nAction 1: Generate[more schools?]"),
                (
                    "Hint: Davidson College | University of Virginia School of Law",
                    'Generated Triples: """\n"""',
                ),
                ("", "Thought 2: stop.\nAction 2: Finish[unknown]"),
            ]
        )
        trajectory = run_episode(
            "q?", ["Q34296"], woodrow_kb, woodrow_completer(), backend,
            gold_answers=WOODROW_GOLD,
        )
        assert trajectory.steps[0].observation.triples == []

    def test_zero_generated_triples_continue_loop(self, woodrow_kb):
        backend = ScriptedBackend(
            [
                ("", "Thought 1: go.\nAction 1: Generate[anything?]"),
                ("Generated Triples", "I cannot think of any new triples."),
                ("", "Thought 2: stop.\nAction 2: Finish[unknown]"),
            ]
        )
        trajectory = run_episode(
            "q?", ["Q34296"], woodrow_kb, woodrow_completer(), backend, gold_answers=["x"]
        )
        assert trajectory.steps[0].observation.triples == []
        assert trajectory.stop_reason == "finish"
        # only the generation call was spent; the correction pass was skipped
        assert trajectory.llm_call_count == 3

    def test_unlinked_relation_kept_unlinked_and_left_out_of_the_path(self, woodrow_kb):
        backend = ScriptedBackend(
            [
                ("", "Thought 1: go.\nAction 1: Generate[where else?]"),
                ("Generated Triples", "1. Woodrow Wilson, zzqq xyzzy, Davidson College\n"
                                      "2. Woodrow Wilson, educated at"),
                ("Schemas", "1. Woodrow Wilson, zzqq xyzzy, Davidson College\n"
                            "2. Woodrow Wilson, educated at, Davidson College"),
                ("Observation 1", "Thought 2: stop.\nAction 2: Finish[Davidson College]"),
            ]
        )
        trajectory = run_episode(
            "q?", ["Q34296"], woodrow_kb, woodrow_completer(), backend, gold_answers=WOODROW_GOLD,
        )
        obs = trajectory.steps[0].observation
        assert [(t.relation, t.relation_id) for t in obs.triples] == [
            ("zzqq xyzzy", None), ("educated at", "P69"),
        ]
        assert obs.notes == ["unparseable triple line: Woodrow Wilson, educated at"]
        path = parse_reasoning_paths(trajectory, woodrow_kb, ScriptedBackend([(
            "Known triples", "Related triples:\nWoodrow Wilson, educated at, Davidson College\n"
                             "Woodrow Wilson, zzqq xyzzy, Davidson College",
        )]))
        assert path.triples == [Triple("Q34296", "P69", "Q1075103")]
        assert "unlinked relation dropped: Woodrow Wilson, zzqq xyzzy, Davidson College" in path.notes


class TestCompleteEdgeCases:
    def test_relation_linked_before_prediction(self, woodrow_kb):
        obs = exec_complete("Woodrow Wilson", "schooled at", woodrow_kb,
                            woodrow_completer(), AgentConfig())
        assert [(t.head, t.relation, t.tail) for t in obs.triples] == [
            ("Woodrow Wilson", "educated at", "Princeton University")
        ]

    def test_unlinkable_relation_noted(self):
        kb = make_kb([("a", "r", "b")], relations={"r": ("zzz qqq", "", "")})
        obs = exec_complete("a", "completely unrelated words", kb, CannedCompleter({}),
                            AgentConfig())
        assert obs.triples == []
        assert any("not linkable" in n for n in obs.notes)

    def test_all_minus_infinity_suppressed(self, woodrow_kb):
        completer = CannedCompleter({("Q34296", "P69"): [("Q21578", float("-inf"))]})
        obs = exec_complete("Woodrow Wilson", "educated at", woodrow_kb, completer, AgentConfig())
        assert obs.triples == []

    def test_remote_filter_keeps_catalog_only(self, woodrow_kb):
        def transport(path, payload):
            return {"samples": [
                {"text": "Princeton University", "logprob": -0.1},
                {"text": "Made Up Place", "logprob": -0.01},
            ]}

        remote = RemoteCompleter(transport=transport)
        obs = exec_complete("Woodrow Wilson", "educated at", woodrow_kb, remote, AgentConfig())
        labels = {t.tail for t in obs.triples}
        assert labels == {"Princeton University"}

    def test_unknown_surface_noted(self, woodrow_kb):
        obs = exec_complete("Nobody Here", "educated at", woodrow_kb, woodrow_completer(),
                            AgentConfig())
        assert obs.triples == []
        assert obs.notes == ["entity not found: Nobody Here"]

    def test_shared_label_defaults_to_the_smallest_id(self):
        kb = make_kb([("Q30", "r", "x"), ("Q99", "r", "y")],
                     entities={"Q30": ("America", ""), "Q99": ("America", ""), "x": ("X", "")},
                     relations={"r": ("related to", "", "")})
        completer = CannedCompleter({("Q30", "r"): [("x", 1.0)], ("Q99", "r"): [("y", 1.0)]})
        obs = exec_complete("America", "related to", kb, completer, AgentConfig())
        assert [t.tail for t in obs.triples] == ["X"]
        assert obs.notes == ["ambiguous entity America: defaulted to Q30"]


class TestCotFallback:
    def test_empty_topics_route_to_single_call(self, woodrow_kb):
        backend = ScriptedBackend([("Question: q?", "Reasoning here.\nAnswer: Paris")])
        trajectory = run_episode("q?", [], woodrow_kb, woodrow_completer(), backend)
        assert trajectory.final_answers == ["Paris"]
        assert trajectory.steps == []
        assert trajectory.llm_call_count == 1
        assert trajectory.stop_reason == "cot"

    def test_parse_multiple_answers(self):
        backend = ScriptedBackend([("", "Answer: Paris | London")])
        assert cot_fallback("q?", TemplateChat(backend, max_calls=1)) == ["Paris", "London"]

    @pytest.mark.parametrize("reply, answers", [
        ("Reasoning here.\n  Probably Paris  \n\n", ["Probably Paris"]),
        (" \n\n", ["unknown"]),
    ])
    def test_reply_without_answer_line(self, reply, answers):
        backend = ScriptedBackend([("", reply)])
        assert cot_fallback("q?", TemplateChat(backend, max_calls=1)) == answers

    def test_nonempty_topics_never_fallback(self, woodrow_kb):
        backend = ScriptedBackend(
            [("Topic Entity", "Thought 1: t.\nAction 1: Finish[unknown]")]
        )
        trajectory = run_episode(
            "q?", ["Q34296"], woodrow_kb, woodrow_completer(), backend, gold_answers=["x"]
        )
        assert trajectory.stop_reason == "finish"
        assert "cot" not in trajectory.template_calls


def test_unknown_topic_refused_before_any_chat_call(woodrow_kb):
    with pytest.raises(UnknownEntityError, match="'Qnone'"):
        run_episode("q?", ["Q34296", "Qnone", "Qother"], woodrow_kb, woodrow_completer(),
                    ScriptedBackend([]))
